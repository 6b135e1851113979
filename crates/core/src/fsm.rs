//! The two finite state machines of the MIPS-X control section.
//!
//! *"The overall control of the machine is handled by two finite state
//! machines located in the PC unit. One of them is used to handle Icache
//! misses and the other one does instruction squashing during exceptions and
//! branches."* (Figures 3 and 4 of the paper.) *"These FSMs are implemented
//! as simple shift registers with a very small amount of random logic and
//! occupy less than 0.2% of the total area of the chip."*
//!
//! The pipeline in [`crate::Machine`] drives both machines every cycle; they
//! are also directly unit-testable, which is how experiment E6 validates the
//! figures' behaviour.

/// State of the cache-miss FSM (Figure 4).
///
/// On an instruction-cache miss the qualified clock ψ1 is withheld: *"When
/// either cache misses, the ψ1 clock does not rise, and the control state
/// does not shift down the pipeline control latches."* The FSM sequences the
/// miss service — in the shipped design two cycles, fetching back two words —
/// and the same mechanism freezes the pipe during external-cache late-miss
/// retries.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CacheMissState {
    /// ψ1 running, pipeline advancing.
    #[default]
    Run,
    /// Servicing a miss; the payload counts remaining frozen cycles.
    /// In the shipped design an Icache miss enters at 2 (fetch word 1,
    /// fetch word 2); an Ecache late miss enters at `1 + memory latency`
    /// (one wasted MEM retry slot per cycle until the data returns).
    Stalled(u32),
}

/// The cache-miss FSM (Figure 4): a freeze counter realized in hardware as a
/// short shift register.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheMissFsm {
    state: CacheMissState,
    /// Total cycles ψ1 was withheld.
    pub frozen_cycles: u64,
    /// Number of miss events serviced.
    pub misses_serviced: u64,
}

impl CacheMissFsm {
    /// A new FSM in the running state.
    pub fn new() -> CacheMissFsm {
        CacheMissFsm::default()
    }

    /// Current state.
    pub fn state(&self) -> CacheMissState {
        self.state
    }

    /// Rebuild an FSM from checkpointed parts — state plus both
    /// instrumentation counters — without replaying the miss events that
    /// produced them ([`CacheMissFsm::start`] counts every call, so a
    /// restore cannot go through it).
    pub fn from_parts(state: CacheMissState, frozen_cycles: u64, misses_serviced: u64) -> Self {
        CacheMissFsm {
            state,
            frozen_cycles,
            misses_serviced,
        }
    }

    /// Whether ψ1 is withheld this cycle.
    pub fn stalled(&self) -> bool {
        matches!(self.state, CacheMissState::Stalled(_))
    }

    /// Begin servicing a miss that takes `cycles` frozen cycles. If already
    /// stalled (an Icache miss whose fill also misses the Ecache), the
    /// cycles accumulate — the retry loop nests naturally.
    pub fn start(&mut self, cycles: u32) {
        if cycles == 0 {
            return;
        }
        self.misses_serviced += 1;
        self.state = match self.state {
            CacheMissState::Run => CacheMissState::Stalled(cycles),
            CacheMissState::Stalled(left) => CacheMissState::Stalled(left + cycles),
        };
    }

    /// Service a miss whose `cycles` frozen cycles pass at once: the
    /// counters end as [`CacheMissFsm::start`] followed by `cycles` ticks
    /// leave them. The block engine books its stalls this way; the FSM
    /// must be running.
    pub fn serve(&mut self, cycles: u32) {
        debug_assert!(!self.stalled(), "serve() while a stall is in service");
        if cycles > 0 {
            self.misses_serviced += 1;
            self.frozen_cycles += u64::from(cycles);
        }
    }

    /// Advance one clock. Returns whether the pipeline may advance (ψ1
    /// rises) this cycle.
    pub fn tick(&mut self) -> bool {
        match self.state {
            CacheMissState::Run => true,
            CacheMissState::Stalled(left) => {
                self.frozen_cycles += 1;
                self.state = if left <= 1 {
                    CacheMissState::Run
                } else {
                    CacheMissState::Stalled(left - 1)
                };
                false
            }
        }
    }
}

/// The kill lines the squash FSM (Figure 3) drives.
///
/// *"There are 2 lines in the machine that can set this bit, Exception and
/// Squash. Exception no-ops the instructions in the ALU and MEM stages of
/// the pipeline, while Squash no-ops the instructions currently in the IF
/// and RF stages."* No-op-ing an instruction *"is quite simple. All that
/// needs to be done is to set a bit in the destination specifier."*
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SquashLines {
    /// Kill the instruction in IF.
    pub kill_if: bool,
    /// Kill the instruction in RF.
    pub kill_rf: bool,
    /// Kill the instruction in ALU.
    pub kill_alu: bool,
    /// Kill the instruction in MEM.
    pub kill_mem: bool,
}

impl SquashLines {
    /// No lines asserted.
    pub fn none() -> SquashLines {
        SquashLines::default()
    }

    /// How many pipeline stages this assertion kills.
    pub fn count(self) -> u32 {
        self.kill_if as u32 + self.kill_rf as u32 + self.kill_alu as u32 + self.kill_mem as u32
    }
}

/// The squash FSM (Figure 3).
///
/// It has exactly two inputs — `branch_wrong_way` and `exception` — which is
/// the paper's point: *"Squashing two branch slots only requires a single
/// extra input to the squashing finite state machine that is used to handle
/// exceptions. Branch squashing and squashing for exceptions are very
/// similar."*
#[derive(Clone, Copy, Debug, Default)]
pub struct SquashFsm {
    /// Branch-squash events (wrong-way branches that killed their slots).
    pub branch_squashes: u64,
    /// Exception events.
    pub exceptions: u64,
    /// Total instructions killed by either line.
    pub instructions_killed: u64,
}

impl SquashFsm {
    /// A new FSM with zeroed instrumentation.
    pub fn new() -> SquashFsm {
        SquashFsm::default()
    }

    /// The branch input: the branch in ALU went against its squash sense, so
    /// the delay-slot instructions die. With two delay slots those sit in IF
    /// and RF; with the one-slot (quick compare) pipeline the branch
    /// resolves in RF and only IF holds a slot instruction.
    pub fn branch_squash(&mut self, delay_slots: usize) -> SquashLines {
        self.branch_squashes += 1;
        let lines = SquashLines {
            kill_if: true,
            kill_rf: delay_slots >= 2,
            kill_alu: false,
            kill_mem: false,
        };
        self.instructions_killed += u64::from(lines.count());
        lines
    }

    /// The exception input: both the Squash line (IF, RF) and the Exception
    /// line (ALU, MEM) assert, so nothing in flight completes.
    pub fn exception(&mut self) -> SquashLines {
        self.exceptions += 1;
        let lines = SquashLines {
            kill_if: true,
            kill_rf: true,
            kill_alu: true,
            kill_mem: true,
        };
        self.instructions_killed += u64::from(lines.count());
        lines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_fsm_two_cycle_service() {
        let mut fsm = CacheMissFsm::new();
        assert!(fsm.tick()); // running
        fsm.start(2);
        assert!(fsm.stalled());
        assert!(!fsm.tick()); // frozen cycle 1
        assert!(!fsm.tick()); // frozen cycle 2
        assert!(fsm.tick()); // running again
        assert_eq!(fsm.frozen_cycles, 2);
        assert_eq!(fsm.misses_serviced, 1);
    }

    #[test]
    fn miss_fsm_nested_stall_accumulates() {
        let mut fsm = CacheMissFsm::new();
        fsm.start(2);
        fsm.start(6); // Ecache miss during the Icache fill
        let mut frozen = 0;
        while !fsm.tick() {
            frozen += 1;
        }
        assert_eq!(frozen, 8);
    }

    #[test]
    fn miss_fsm_zero_is_noop() {
        let mut fsm = CacheMissFsm::new();
        fsm.start(0);
        assert!(!fsm.stalled());
        assert_eq!(fsm.misses_serviced, 0);
    }

    #[test]
    fn squash_kills_if_and_rf() {
        let mut fsm = SquashFsm::new();
        let lines = fsm.branch_squash(2);
        assert!(lines.kill_if && lines.kill_rf);
        assert!(!lines.kill_alu && !lines.kill_mem);
        assert_eq!(lines.count(), 2);
    }

    #[test]
    fn one_slot_squash_kills_only_if() {
        let mut fsm = SquashFsm::new();
        let lines = fsm.branch_squash(1);
        assert!(lines.kill_if && !lines.kill_rf);
        assert_eq!(lines.count(), 1);
    }

    #[test]
    fn exception_kills_everything_in_flight() {
        let mut fsm = SquashFsm::new();
        let lines = fsm.exception();
        assert_eq!(lines.count(), 4);
        assert_eq!(fsm.exceptions, 1);
        assert_eq!(fsm.instructions_killed, 4);
    }

    #[test]
    fn instrumentation_accumulates() {
        let mut fsm = SquashFsm::new();
        let _ = fsm.branch_squash(2);
        let _ = fsm.branch_squash(2);
        let _ = fsm.exception();
        assert_eq!(fsm.branch_squashes, 2);
        assert_eq!(fsm.exceptions, 1);
        assert_eq!(fsm.instructions_killed, 8);
    }
}
