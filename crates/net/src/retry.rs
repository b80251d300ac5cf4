//! The one retry loop: every re-issue of a faulted backend attempt in the
//! tree runs through [`drive_retries`] — try, on fault pick the next issue
//! cycle, give up only when the policy says so, and panic if the link is
//! permanently dead. Three [`RetryOps`] policies plug into it: the runtime's
//! `RuntimeRetry` (backoff, deadline, deferrable writebacks), the pager's
//! `PagerRetry` (a kernel round per re-drive) and [`Blind`] (re-issue at
//! detection; the blocking `transfer`/`writeback` of `Link` and `Sharded`).
//!
//! The driver is deliberately dumb: it owns the attempt counter and the
//! dead-link safety valve, nothing else. Telemetry, stats, health polling,
//! and backoff arithmetic all live in the policy.

use crate::fault::LinkFault;

/// Safety valve shared by every driven retry loop: a fault plan hostile
/// enough to fail this many consecutive attempts of one operation means the
/// link is permanently dead, which the simulation cannot make progress
/// under.
pub const MAX_DRIVEN_RETRIES: u32 = 10_000;

/// A successfully delivered operation, as reported by [`drive_retries`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Retried {
    /// Completion cycle of the delivering attempt.
    pub done: u64,
    /// Faulted attempts that preceded it (0 = first attempt delivered).
    pub attempts: u32,
    /// Cycle the delivering attempt was issued at (equals the start cycle
    /// when `attempts == 0`; later when backoff pushed the operation out).
    pub issued_at: u64,
}

/// The policy half of a driven retry loop.
///
/// `drive_retries` calls [`issue`](Self::issue) once per attempt; on a
/// fault it asks [`on_fault`](Self::on_fault) for the next issue cycle —
/// `None` abandons the operation (deferred writeback, exhausted budget).
/// The implementor owns all side effects: stats, spans, health and
/// failover polling.
pub trait RetryOps {
    /// One attempt at cycle `at`. `attempts` is how many faults preceded it.
    fn issue(&mut self, at: u64, attempts: u32) -> Result<u64, LinkFault>;

    /// Decides the follow-up to a faulted attempt: `Some(next_at)` retries
    /// at that cycle, `None` gives up. `attempts` counts this fault.
    fn on_fault(&mut self, attempts: u32, fault: LinkFault) -> Option<u64>;

    /// Panic message when [`MAX_DRIVEN_RETRIES`] consecutive attempts fault.
    fn describe_dead(&self, attempts: u32) -> String;
}

/// Drives `ops` from cycle `start` until an attempt delivers or the policy
/// gives up. Returns `None` only when [`RetryOps::on_fault`] declined to
/// retry.
///
/// # Panics
/// Panics with [`RetryOps::describe_dead`] after [`MAX_DRIVEN_RETRIES`]
/// consecutive faults: the link is permanently dead.
#[inline]
pub fn drive_retries(ops: &mut impl RetryOps, start: u64) -> Option<Retried> {
    let mut at = start;
    let mut attempts = 0u32;
    loop {
        match ops.issue(at, attempts) {
            Ok(done) => {
                return Some(Retried {
                    done,
                    attempts,
                    issued_at: at,
                })
            }
            Err(f) => {
                attempts += 1;
                assert!(
                    attempts < MAX_DRIVEN_RETRIES,
                    "{}",
                    ops.describe_dead(attempts)
                );
                match ops.on_fault(attempts, f) {
                    Some(next_at) => at = next_at,
                    None => return None,
                }
            }
        }
    }
}

/// The blind policy: re-issue at the fault's detection cycle, with no
/// backoff, and never give up. Holds the target, one attempt on it, and the
/// target's dead-link panic message.
struct Blind<'a, T, A, D>(&'a mut T, A, D);

impl<T, A, D> RetryOps for Blind<'_, T, A, D>
where
    A: FnMut(&mut T, u64) -> Result<u64, LinkFault>,
    D: Fn(&T, u32) -> String,
{
    fn issue(&mut self, at: u64, _attempts: u32) -> Result<u64, LinkFault> {
        (self.1)(self.0, at)
    }

    fn on_fault(&mut self, _attempts: u32, fault: LinkFault) -> Option<u64> {
        Some(fault.detected_at)
    }

    fn describe_dead(&self, attempts: u32) -> String {
        (self.2)(self.0, attempts)
    }
}

/// Drives `attempt` on `target` from cycle `start` under the [`Blind`]
/// policy and returns the completion cycle; panics with `dead`'s message
/// when the link is permanently dead.
#[inline]
pub(crate) fn blind<T>(
    target: &mut T,
    start: u64,
    attempt: impl FnMut(&mut T, u64) -> Result<u64, LinkFault>,
    dead: impl Fn(&T, u32) -> String,
) -> u64 {
    let r = drive_retries(&mut Blind(target, attempt, dead), start);
    r.expect("the blind policy never gives up").done
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultKind;

    /// Scripted ops: the first `fail` attempts fault, then one delivers.
    struct Scripted {
        fail: u32,
        give_up_after: Option<u32>,
        log: Vec<(u64, u32)>,
    }

    impl RetryOps for Scripted {
        fn issue(&mut self, at: u64, attempts: u32) -> Result<u64, LinkFault> {
            self.log.push((at, attempts));
            if attempts < self.fail {
                Err(LinkFault {
                    kind: FaultKind::Drop,
                    detected_at: at + 100,
                })
            } else {
                Ok(at + 10)
            }
        }

        fn on_fault(&mut self, attempts: u32, fault: LinkFault) -> Option<u64> {
            if self.give_up_after.is_some_and(|n| attempts >= n) {
                return None;
            }
            // Backoff: one extra cycle per attempt past detection.
            Some(fault.detected_at + u64::from(attempts))
        }

        fn describe_dead(&self, attempts: u32) -> String {
            format!("dead after {attempts}")
        }
    }

    #[test]
    fn first_attempt_success_reports_zero_retries() {
        let mut ops = Scripted {
            fail: 0,
            give_up_after: None,
            log: Vec::new(),
        };
        let r = drive_retries(&mut ops, 500).unwrap();
        assert_eq!(
            r,
            Retried {
                done: 510,
                attempts: 0,
                issued_at: 500
            }
        );
        assert_eq!(ops.log, vec![(500, 0)]);
    }

    #[test]
    fn faults_reissue_at_the_policy_cycle() {
        let mut ops = Scripted {
            fail: 2,
            give_up_after: None,
            log: Vec::new(),
        };
        let r = drive_retries(&mut ops, 0).unwrap();
        // Attempt 0 at 0 faults (detected 100, +1 backoff → 101); attempt 1
        // at 101 faults (detected 201, +2 → 203); attempt 2 delivers.
        assert_eq!(ops.log, vec![(0, 0), (101, 1), (203, 2)]);
        assert_eq!(
            r,
            Retried {
                done: 213,
                attempts: 2,
                issued_at: 203
            }
        );
    }

    #[test]
    fn policy_can_abandon_the_operation() {
        let mut ops = Scripted {
            fail: u32::MAX,
            give_up_after: Some(3),
            log: Vec::new(),
        };
        assert_eq!(drive_retries(&mut ops, 0), None);
        assert_eq!(ops.log.len(), 3, "exactly give_up_after attempts issued");
    }

    #[test]
    #[should_panic(expected = "dead after")]
    fn permanently_dead_link_panics() {
        let mut ops = Scripted {
            fail: u32::MAX,
            give_up_after: None,
            log: Vec::new(),
        };
        drive_retries(&mut ops, 0);
    }
}
