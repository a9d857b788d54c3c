//! Recovery (§3.6.3): the restart policy of the system under study and the
//! supervisor that applies it, plus the saboteur that crashes a daemon to
//! exercise the central daemon's abort path.

use super::{ExpCtx, RtCtx};
use crate::harness::CampaignError;
use crate::messages::RtMsg;
use loki_core::ids::{HostId, SmId};
use loki_sim::engine::{ActorId, DownReason};
use rand::Rng;
use std::rc::Rc;

/// Where a crashed machine restarts.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub enum RestartPlacement {
    /// Restart on the host it crashed on.
    #[default]
    SameHost,
    /// Restart on the next host (round-robin) — exercises restart on a
    /// *different* host (§3.6.3).
    NextHost,
    /// Restart on a uniformly random host.
    RandomHost,
}

/// The recovery policy of the system under study.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct RestartPolicy {
    /// Probability that a crashed machine is restarted (coverage studies
    /// need both outcomes).
    pub probability: f64,
    /// Delay between crash detection and restart, in nanoseconds.
    pub delay_ns: u64,
    /// Maximum restarts per machine per experiment.
    pub max_restarts: u32,
    /// Host selection.
    pub placement: RestartPlacement,
}

impl RestartPolicy {
    /// Checks the policy for values the supervisor cannot draw against.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Restart`] when `probability` is NaN,
    /// infinite or outside `[0, 1]`. Caught at the first crash instead,
    /// such a value would fail every crashing experiment as a harness
    /// error.
    pub fn validate(&self) -> Result<(), CampaignError> {
        if (0.0..=1.0).contains(&self.probability) {
            Ok(())
        } else {
            Err(CampaignError::Restart(format!(
                "loki: invalid restart policy: probability {} is outside [0, 1]",
                self.probability
            )))
        }
    }
}

impl Default for RestartPolicy {
    fn default() -> Self {
        RestartPolicy {
            probability: 1.0,
            delay_ns: 30_000_000, // 30 ms
            max_restarts: 1,
            placement: RestartPlacement::NextHost,
        }
    }
}

/// The restart supervisor: the application's recovery mechanism.
pub(crate) struct Supervisor {
    ctx: Rc<ExpCtx>,
    policy: RestartPolicy,
    /// Restart counts, indexed by machine id.
    restarts: Vec<u32>,
}

impl Supervisor {
    pub(crate) fn new(ctx: Rc<ExpCtx>, policy: RestartPolicy) -> Self {
        let num_sms = ctx.study.sms.len();
        Supervisor {
            ctx,
            policy,
            restarts: vec![0; num_sms],
        }
    }

    /// Resets a pooled supervisor for the next experiment.
    pub(crate) fn reinit(&mut self, policy: RestartPolicy) {
        self.policy = policy;
        self.restarts.fill(0);
    }

    pub(super) fn on_message(&mut self, ctx: &mut RtCtx<'_>, msg: RtMsg) {
        if let RtMsg::NodeDown {
            sm,
            crashed: true,
            host,
        } = msg
        {
            let count = &mut self.restarts[sm.raw() as usize];
            if *count >= self.policy.max_restarts {
                return;
            }
            if self.policy.probability < 1.0 && !ctx.rng().gen_bool(self.policy.probability) {
                return;
            }
            *count += 1;
            let n = self.ctx.symbols.len() as u32;
            let target = match self.policy.placement {
                RestartPlacement::SameHost => host,
                RestartPlacement::NextHost => HostId::from_raw((host.raw() + 1) % n),
                RestartPlacement::RandomHost => HostId::from_raw(ctx.rng().gen_range(0..n)),
            };
            // Encode machine and host into the timer tag.
            let tag = ((sm.raw() as u64) << 32) | target.raw() as u64;
            ctx.set_timer(self.policy.delay_ns, tag);
        }
    }

    pub(super) fn on_timer(&mut self, ctx: &mut RtCtx<'_>, tag: u64) {
        let sm = SmId::from_raw((tag >> 32) as u32);
        let host = HostId::from_raw((tag & 0xffff_ffff) as u32);
        let daemon = self.ctx.wiring.daemon_for(host);
        if ctx.is_alive(daemon) {
            ctx.send(daemon, RtMsg::StartNode { sm, host });
        }
    }
}

/// Failure injection on the injector itself: crashes a daemon after a
/// delay, so tests can exercise the central daemon's abnormality handling
/// (§3.5.1: "if an abnormality occurs, the central daemon instructs the
/// local daemons to kill all the state machines, and aborts the
/// experiment").
pub(crate) struct Saboteur {
    /// The daemon to crash.
    pub victim: ActorId,
    /// Delay before the crash (ns).
    pub after_ns: u64,
}

impl Saboteur {
    pub(super) fn on_start(&mut self, ctx: &mut RtCtx<'_>) {
        ctx.set_timer(self.after_ns, 0);
    }

    pub(super) fn on_timer(&mut self, ctx: &mut RtCtx<'_>) {
        ctx.kill(self.victim, DownReason::Crash);
        ctx.exit_self();
    }
}
