//! Deterministic fault injection.
//!
//! The paper's exception machinery makes a strong claim: squash-based
//! exception entry, the PC-chain restart sequence, and the Ecache late-miss
//! retry loop leave architectural state *exactly* as if the pipeline never
//! existed. This module supplies the adversary that claim needs: a
//! [`FaultPlan`] is a deterministic, seed-driven schedule of hardware
//! misfortunes — maskable interrupts, NMIs, Icache parity errors that force
//! a sub-block refetch, Ecache late-miss latency jitter, and
//! coprocessor-busy faults — threaded into the pipeline through
//! [`Machine::step`] next to the [`TraceSink`] hook.
//!
//! Every fault is either **architecturally invisible** (parity, jitter,
//! coprocessor busy perturb timing only) or **architecturally precise**
//! (interrupts and NMIs enter the handler and restart through the PC
//! chain), so a lockstep run against the functional reference interpreter
//! (`mipsx-ref`) must end in identical state under *any* plan. Plans
//! round-trip through a compact text spec (`120:irq,340:nmi,500:parity`)
//! so a failing fuzz case reproduces from its command line.
//!
//! [`Machine::step`]: crate::Machine::step
//! [`TraceSink`]: crate::probe::TraceSink

use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One kind of injectable fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum FaultKind {
    /// Assert the level-triggered maskable interrupt line, releasing it
    /// after `hold` cycles (an off-chip interrupt controller holding the
    /// pin). With interrupts masked the pulse may be ignored entirely —
    /// that is part of what the plan tests.
    Interrupt {
        /// Cycles the line stays asserted.
        hold: u32,
    },
    /// Pulse the edge-triggered non-maskable interrupt pin.
    Nmi,
    /// Instruction-cache parity error at the current fetch PC: the stored
    /// word can no longer be trusted, its sub-block valid bit is dropped,
    /// and the word is refetched through the external cache. Timing-only.
    IcacheParity,
    /// External-cache late-miss latency jitter: the retry loop freezes the
    /// pipeline `extra` additional cycles, as a slow DRAM bank would.
    /// Timing-only.
    EcacheJitter {
        /// Extra frozen cycles.
        extra: u32,
    },
    /// Coprocessor-busy fault: attached coprocessors report busy for
    /// `cycles` and the pipeline freezes as if issuing to a busy device.
    /// Timing-only.
    CoprocBusy {
        /// Cycles the device stays busy.
        cycles: u32,
    },
}

impl FaultKind {
    /// Single-letter mark used in pipe diagrams (`I N P J C`).
    pub fn letter(self) -> char {
        match self {
            FaultKind::Interrupt { .. } => 'I',
            FaultKind::Nmi => 'N',
            FaultKind::IcacheParity => 'P',
            FaultKind::EcacheJitter { .. } => 'J',
            FaultKind::CoprocBusy { .. } => 'C',
        }
    }

    /// Whether the fault can change architectural control flow (interrupts
    /// enter the handler); timing-only faults must be invisible.
    pub fn architectural(self) -> bool {
        matches!(self, FaultKind::Interrupt { .. } | FaultKind::Nmi)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Interrupt { hold } => write!(f, "irq{hold}"),
            FaultKind::Nmi => f.write_str("nmi"),
            FaultKind::IcacheParity => f.write_str("parity"),
            FaultKind::EcacheJitter { extra } => write!(f, "jitter{extra}"),
            FaultKind::CoprocBusy { cycles } => write!(f, "cpbusy{cycles}"),
        }
    }
}

/// A fault scheduled at an absolute machine cycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FaultEvent {
    /// Cycle at which the fault fires (compared against
    /// [`crate::RunStats::cycles`], which starts at 1).
    pub cycle: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.cycle, self.kind)
    }
}

/// A deterministic schedule of faults, consumed as the machine steps.
///
/// Events fire in cycle order; events scheduled in the past fire
/// immediately on the next step. The plan also tracks the release point of
/// a held interrupt line, so it owns the `interrupt` pin for the duration
/// of a fault-driven pulse.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    /// Events sorted by cycle (stable for equal cycles: insertion order).
    events: Vec<FaultEvent>,
    /// Index of the next event to fire.
    cursor: usize,
    /// Cycle at which the fault-asserted interrupt line drops again.
    irq_release: Option<u64>,
}

impl FaultPlan {
    /// The empty plan: injects nothing, costs (almost) nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// A plan from an explicit event list (sorted internally).
    pub fn new(mut events: Vec<FaultEvent>) -> FaultPlan {
        events.sort_by_key(|e| e.cycle);
        FaultPlan {
            events,
            cursor: 0,
            irq_release: None,
        }
    }

    /// Schedule `kind` at `cycle`, keeping the schedule sorted.
    pub fn push(&mut self, cycle: u64, kind: FaultKind) {
        let at = self.events.partition_point(|e| e.cycle <= cycle);
        self.events.insert(at, FaultEvent { cycle, kind });
    }

    /// The full schedule.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Whether nothing is scheduled at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Whether every event has fired and no interrupt hold is pending —
    /// the machine's fast path out of fault processing.
    pub fn exhausted(&self) -> bool {
        self.cursor >= self.events.len() && self.irq_release.is_none()
    }

    /// A seed-driven random plan: `count` faults spread uniformly over
    /// `[5, horizon]` cycles, mixing all five kinds. Deterministic per
    /// seed — the soak harness prints the seed to reproduce a failure.
    ///
    /// Faults start no earlier than cycle 5: an exception taken while the
    /// pipeline is still filling from reset would save a PC chain that
    /// contains reset-default entries, and the restart sequence would
    /// replay them. Real handlers never see that window (the boot path
    /// runs with interrupts masked until the pipe is full), so the plan
    /// generator avoids it rather than modelling it.
    pub fn random(seed: u64, horizon: u64, count: u32) -> FaultPlan {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut events = Vec::with_capacity(count as usize);
        for _ in 0..count {
            let cycle = rng.gen_range(5..=horizon.max(5));
            let kind = match rng.gen_range(0u32..5) {
                0 => FaultKind::Interrupt {
                    hold: rng.gen_range(1u32..=4),
                },
                1 => FaultKind::Nmi,
                2 => FaultKind::IcacheParity,
                3 => FaultKind::EcacheJitter {
                    extra: rng.gen_range(1u32..=8),
                },
                _ => FaultKind::CoprocBusy {
                    cycles: rng.gen_range(1u32..=6),
                },
            };
            events.push(FaultEvent { cycle, kind });
        }
        FaultPlan::new(events)
    }

    /// Parse the compact spec format: comma-separated `cycle:kind` items,
    /// where kind is `irq[N]` (hold, default 2), `nmi`, `parity`,
    /// `jitter[N]` (extra cycles, default 4) or `cpbusy[N]` (busy cycles,
    /// default 3). Example: `120:irq,340:nmi,500:parity,700:jitter8`.
    ///
    /// # Errors
    /// A description of the first malformed item.
    pub fn parse(spec: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::none();
        for item in spec.split(',').filter(|s| !s.trim().is_empty()) {
            let item = item.trim();
            let (cycle, kind) = item
                .split_once(':')
                .ok_or_else(|| format!("`{item}`: expected cycle:kind"))?;
            let cycle: u64 = cycle
                .parse()
                .map_err(|_| format!("`{item}`: bad cycle number"))?;
            let suffix = |prefix: &str, default: u32| -> Result<u32, String> {
                let rest = &kind[prefix.len()..];
                if rest.is_empty() {
                    Ok(default)
                } else {
                    rest.parse()
                        .map_err(|_| format!("`{item}`: bad count `{rest}`"))
                }
            };
            let kind = if kind == "nmi" {
                FaultKind::Nmi
            } else if kind == "parity" {
                FaultKind::IcacheParity
            } else if kind.starts_with("irq") {
                FaultKind::Interrupt {
                    hold: suffix("irq", 2)?,
                }
            } else if kind.starts_with("jitter") {
                FaultKind::EcacheJitter {
                    extra: suffix("jitter", 4)?,
                }
            } else if kind.starts_with("cpbusy") {
                FaultKind::CoprocBusy {
                    cycles: suffix("cpbusy", 3)?,
                }
            } else {
                return Err(format!("`{item}`: unknown fault kind `{kind}`"));
            };
            plan.push(cycle, kind);
        }
        Ok(plan)
    }

    /// The next event due at `cycle` (or earlier), consuming it.
    pub(crate) fn pop_due(&mut self, cycle: u64) -> Option<FaultKind> {
        let event = self.events.get(self.cursor)?;
        if event.cycle <= cycle {
            self.cursor += 1;
            Some(event.kind)
        } else {
            None
        }
    }

    /// Extend the held-interrupt window to at least `until`.
    pub(crate) fn hold_interrupt_until(&mut self, until: u64) {
        self.irq_release = Some(self.irq_release.map_or(until, |r| r.max(until)));
    }

    /// Whether a fault-held interrupt line should drop at `cycle`
    /// (consumes the window).
    pub(crate) fn interrupt_release_due(&mut self, cycle: u64) -> bool {
        if self.irq_release.is_some_and(|r| cycle >= r) {
            self.irq_release = None;
            true
        } else {
            false
        }
    }

    /// The most recently fired event, for divergence reports.
    pub fn last_fired(&self) -> Option<FaultEvent> {
        self.cursor
            .checked_sub(1)
            .and_then(|i| self.events.get(i))
            .copied()
    }

    /// Reset the consumption cursor so the same plan replays from cycle 0.
    pub fn rewind(&mut self) {
        self.cursor = 0;
        self.irq_release = None;
    }

    /// How many events have fired so far (the consumption cursor), for
    /// checkpointing.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// The pending release cycle of a fault-held interrupt line, for
    /// checkpointing.
    pub fn irq_release(&self) -> Option<u64> {
        self.irq_release
    }

    /// Restore checkpointed consumption progress: `cursor` events already
    /// fired (clamped to the schedule length) and an optional pending
    /// interrupt-release cycle.
    pub fn restore_progress(&mut self, cursor: usize, irq_release: Option<u64>) {
        self.cursor = cursor.min(self.events.len());
        self.irq_release = irq_release;
    }
}

impl fmt::Display for FaultPlan {
    /// The spec format accepted by [`FaultPlan::parse`] (lossless
    /// round-trip).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, event) in self.events.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{event}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_round_trip() {
        let spec = "120:irq3,340:nmi,500:parity,700:jitter8,900:cpbusy4";
        let plan = FaultPlan::parse(spec).unwrap();
        assert_eq!(plan.to_string(), spec);
        assert_eq!(plan.events().len(), 5);
        assert_eq!(
            plan.events()[0],
            FaultEvent {
                cycle: 120,
                kind: FaultKind::Interrupt { hold: 3 }
            }
        );
    }

    #[test]
    fn spec_defaults_and_errors() {
        let plan = FaultPlan::parse("5:irq,9:jitter,11:cpbusy").unwrap();
        assert_eq!(plan.events()[0].kind, FaultKind::Interrupt { hold: 2 },);
        assert_eq!(plan.events()[1].kind, FaultKind::EcacheJitter { extra: 4 });
        assert_eq!(plan.events()[2].kind, FaultKind::CoprocBusy { cycles: 3 });
        assert!(FaultPlan::parse("nocolon").is_err());
        assert!(FaultPlan::parse("x:nmi").is_err());
        assert!(FaultPlan::parse("4:zap").is_err());
        assert!(FaultPlan::parse("4:irqx").is_err());
        assert!(FaultPlan::parse("").unwrap().is_empty());
    }

    #[test]
    fn events_fire_in_cycle_order() {
        let mut plan = FaultPlan::new(vec![
            FaultEvent {
                cycle: 30,
                kind: FaultKind::Nmi,
            },
            FaultEvent {
                cycle: 10,
                kind: FaultKind::IcacheParity,
            },
        ]);
        assert_eq!(plan.pop_due(5), None);
        assert_eq!(plan.pop_due(10), Some(FaultKind::IcacheParity));
        assert_eq!(plan.pop_due(10), None);
        // Late pops still deliver events scheduled in the past.
        assert_eq!(plan.pop_due(100), Some(FaultKind::Nmi));
        assert!(plan.exhausted());
        assert_eq!(plan.last_fired().map(|e| e.cycle), Some(30));
        plan.rewind();
        assert!(!plan.exhausted());
    }

    #[test]
    fn interrupt_hold_window() {
        let mut plan = FaultPlan::none();
        plan.hold_interrupt_until(20);
        plan.hold_interrupt_until(15); // shorter hold never shrinks the window
        assert!(!plan.interrupt_release_due(19));
        assert!(plan.interrupt_release_due(20));
        assert!(!plan.interrupt_release_due(21)); // already released
    }

    #[test]
    fn random_plans_are_deterministic() {
        let a = FaultPlan::random(7, 400, 12);
        let b = FaultPlan::random(7, 400, 12);
        assert_eq!(a.events(), b.events());
        assert_eq!(a.events().len(), 12);
        assert!(a.events().iter().all(|e| (5..=400).contains(&e.cycle)));
        let c = FaultPlan::random(8, 400, 12);
        assert_ne!(a.events(), c.events());
    }
}
