//! Deterministic, seed-driven fault injection for the fabric.
//!
//! A [`FaultPlan`] attached to a [`crate::Fabric`] perturbs every frame the
//! link puts on the wire — a message's first send, its resends and the
//! acks alike: frames can be dropped, duplicated, delayed or reordered (a
//! short random delay), per `(src, dst, kind)` match (an ack's kind is `"Ack"`). The link below the
//! protocol ([`crate::link`]) masks the loss, duplication and reordering,
//! recovery messages included; the protocol sees the delay, and crashes.
//! All randomness comes from one seed expanded into an independent
//! splitmix64 stream per sending node, so a run's fault decisions are a
//! pure function of the seed and each sender's frame sequence.

use std::time::Duration;

use crate::endpoint::NodeId;

/// The longest detour a duplicate or a reordered message takes (the
/// shortest is 50 µs).
const DETOUR_MAX_US: u64 = 500;

/// Deterministic splitmix64 stream (no external RNG crates in this
/// workspace). Good enough statistical quality for fault injection.
#[derive(Debug, Clone)]
pub(crate) struct Rng(pub u64);

impl Rng {
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub(crate) fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `[lo, hi]` (inclusive; `lo <= hi`).
    pub(crate) fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }
}

/// One fault-injection rule. `None` fields are wildcards; the first rule in
/// the plan matching `(src, dst, kind)` decides a message's fate.
#[derive(Debug, Clone)]
pub struct FaultRule {
    /// Match messages from this sender only (`None` = any).
    pub src: Option<NodeId>,
    /// Match messages to this receiver only (`None` = any).
    pub dst: Option<NodeId>,
    /// Match this message kind only, e.g. `"PageReq"` (`None` = any).
    pub kind: Option<&'static str>,
    /// Probability the message is silently dropped.
    pub drop: f64,
    /// Probability the message is delivered twice (the duplicate takes a
    /// short random detour, 50–500 µs, so it can arrive out of order).
    pub dup: f64,
    /// Probability the message is delayed by a uniform sample from
    /// `[delay_min, delay_max]`.
    pub delay: f64,
    /// Lower bound of the delay window.
    pub delay_min: Duration,
    /// Upper bound of the delay window.
    pub delay_max: Duration,
    /// Probability the message takes a short random detour (50–500 µs),
    /// letting later sends overtake it: reordering.
    pub reorder: f64,
}

impl FaultRule {
    /// A rule matching every message, injecting nothing (builder seed).
    pub fn all() -> FaultRule {
        FaultRule {
            src: None,
            dst: None,
            kind: None,
            drop: 0.0,
            dup: 0.0,
            delay: 0.0,
            delay_min: Duration::from_micros(100),
            delay_max: Duration::from_millis(1),
            reorder: 0.0,
        }
    }

    /// Restrict to one sender.
    pub fn from_src(mut self, src: NodeId) -> Self {
        self.src = Some(src);
        self
    }

    /// Restrict to one receiver.
    pub fn to_dst(mut self, dst: NodeId) -> Self {
        self.dst = Some(dst);
        self
    }

    /// Restrict to one message kind (the [`crate::WireSized::kind_name`]).
    pub fn of_kind(mut self, kind: &'static str) -> Self {
        self.kind = Some(kind);
        self
    }

    /// Set the drop probability.
    pub fn dropping(mut self, p: f64) -> Self {
        self.drop = p;
        self
    }

    /// Set the duplication probability.
    pub fn duplicating(mut self, p: f64) -> Self {
        self.dup = p;
        self
    }

    /// Set the delay probability and window.
    pub fn delaying(mut self, p: f64, min: Duration, max: Duration) -> Self {
        assert!(min <= max, "delay window inverted");
        self.delay = p;
        self.delay_min = min;
        self.delay_max = max;
        self
    }

    /// Set the reorder probability.
    pub fn reordering(mut self, p: f64) -> Self {
        self.reorder = p;
        self
    }

    fn matches(&self, src: NodeId, dst: NodeId, kind: &str) -> bool {
        self.src.is_none_or(|s| s == src)
            && self.dst.is_none_or(|d| d == dst)
            && self.kind.is_none_or(|k| k == kind)
    }
}

/// A seeded set of fault rules, attached to a fabric with
/// [`crate::Fabric::set_fault_plan`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// The seed all fault decisions derive from.
    pub seed: u64,
    /// Rules, first match wins.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// An empty plan: no rule, so nothing is injected, but the link is on.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            rules: Vec::new(),
        }
    }

    /// Append a rule.
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// A generally lossy network: 2% drop, 1% duplication, 5% delay of
    /// 100 µs–2 ms, 5% reorder, on every frame.
    pub fn lossy(seed: u64) -> FaultPlan {
        FaultPlan::new(seed).with_rule(
            FaultRule::all()
                .dropping(0.02)
                .duplicating(0.01)
                .delaying(0.05, Duration::from_micros(100), Duration::from_millis(2))
                .reordering(0.05),
        )
    }

    /// The longest any rule can hold a message back: `delay_max` where a
    /// rule delays, the 500 µs detour where it duplicates or reorders, and
    /// zero for a plan that only drops.
    pub fn max_delay(&self) -> Duration {
        let detour = Duration::from_micros(DETOUR_MAX_US);
        let rule_max = |r: &FaultRule| {
            let delayed = (r.delay > 0.0).then_some(r.delay_max);
            let detoured = (r.dup > 0.0 || r.reorder > 0.0).then_some(detour);
            delayed.max(detoured)
        };
        self.rules
            .iter()
            .filter_map(rule_max)
            .max()
            .unwrap_or_default()
    }
}

/// What the chaos layer decided for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fate {
    /// Deliver normally.
    Deliver,
    /// Silently lose the message.
    Drop,
    /// Deliver now and once more after `detour`.
    Dup {
        /// Delay of the duplicate copy.
        detour: Duration,
    },
    /// Deliver after a delay.
    Delay {
        /// The sampled delay.
        by: Duration,
    },
}

/// Live injection state derived from a [`FaultPlan`]: the rules plus one
/// RNG stream per sending node (`seed ^ splitmix(node)`), each behind its
/// own lock so senders never contend with each other.
pub(crate) struct ChaosState {
    rules: Vec<FaultRule>,
    rngs: Vec<parking_lot::Mutex<Rng>>,
}

impl ChaosState {
    pub(crate) fn new(plan: &FaultPlan, n: usize) -> ChaosState {
        ChaosState {
            rules: plan.rules.clone(),
            rngs: (0..n)
                .map(|node| {
                    // Decorrelate the per-node streams.
                    let mut mix = Rng(node as u64);
                    parking_lot::Mutex::new(Rng(plan.seed ^ mix.next_u64()))
                })
                .collect(),
        }
    }

    /// Decide the fate of one frame. Consumes randomness from the
    /// sender's stream only.
    pub(crate) fn decide(&self, src: NodeId, dst: NodeId, kind: &str) -> Fate {
        let Some(rule) = self.rules.iter().find(|r| r.matches(src, dst, kind)) else {
            return Fate::Deliver;
        };
        let mut rng = self.rngs[src].lock();
        if rule.drop > 0.0 && rng.next_f64() < rule.drop {
            return Fate::Drop;
        }
        if rule.dup > 0.0 && rng.next_f64() < rule.dup {
            let detour = Duration::from_micros(rng.next_range(50, DETOUR_MAX_US));
            return Fate::Dup { detour };
        }
        if rule.delay > 0.0 && rng.next_f64() < rule.delay {
            let by = Duration::from_micros(rng.next_range(
                rule.delay_min.as_micros() as u64,
                rule.delay_max.as_micros() as u64,
            ));
            return Fate::Delay { by };
        }
        if rule.reorder > 0.0 && rng.next_f64() < rule.reorder {
            let by = Duration::from_micros(rng.next_range(50, DETOUR_MAX_US));
            return Fate::Delay { by };
        }
        Fate::Deliver
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_streams_are_deterministic_and_decorrelated() {
        let mut a = Rng(42);
        let mut b = Rng(42);
        let mut c = Rng(43);
        let sa: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let sb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let sc: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
        let mut r = Rng(7);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
            let v = r.next_range(3, 9);
            assert!((3..=9).contains(&v));
        }
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::new(1)
            .with_rule(FaultRule::all().of_kind("PageReq").dropping(1.0))
            .with_rule(FaultRule::all().dropping(0.0));
        let st = ChaosState::new(&plan, 2);
        assert_eq!(st.decide(0, 1, "PageReq"), Fate::Drop);
        assert_eq!(st.decide(0, 1, "DiffBatch"), Fate::Deliver);
    }

    #[test]
    fn src_dst_matching() {
        let plan =
            FaultPlan::new(9).with_rule(FaultRule::all().from_src(0).to_dst(2).dropping(1.0));
        let st = ChaosState::new(&plan, 3);
        assert_eq!(st.decide(0, 2, "PageReq"), Fate::Drop);
        assert_eq!(st.decide(0, 1, "PageReq"), Fate::Deliver);
        assert_eq!(st.decide(1, 2, "PageReq"), Fate::Deliver);
    }

    #[test]
    fn same_seed_same_decisions() {
        let plan = FaultPlan::lossy(0xFEED);
        let a = ChaosState::new(&plan, 4);
        let b = ChaosState::new(&plan, 4);
        for i in 0..500 {
            let kind = if i % 2 == 0 { "PageReq" } else { "DiffBatch" };
            assert_eq!(a.decide(1, 2, kind), b.decide(1, 2, kind));
        }
    }

    #[test]
    fn max_delay_is_the_longest_any_rule_can_hold_a_message() {
        let ms = Duration::from_millis;
        assert_eq!(FaultPlan::lossy(0).max_delay(), ms(2));
        assert_eq!(FaultPlan::new(0).max_delay(), Duration::ZERO);
        let drops = FaultRule::all().dropping(0.5);
        let plan = FaultPlan::new(0).with_rule(drops.clone());
        assert_eq!(plan.max_delay(), Duration::ZERO);
        let reorders = FaultRule::all().of_kind("PageReq").reordering(0.1);
        let plan = FaultPlan::new(0).with_rule(reorders).with_rule(drops);
        assert_eq!(plan.max_delay(), Duration::from_micros(500));
        let slow = FaultRule::all().to_dst(1).delaying(0.01, ms(1), ms(20));
        let plan = FaultPlan::new(0)
            .with_rule(slow)
            .with_rule(FaultRule::all().reordering(0.1));
        assert_eq!(plan.max_delay(), ms(20));
    }

    #[test]
    fn delay_samples_stay_in_window() {
        let plan = FaultPlan::new(3).with_rule(FaultRule::all().delaying(
            1.0,
            Duration::from_micros(200),
            Duration::from_micros(400),
        ));
        let st = ChaosState::new(&plan, 2);
        for _ in 0..200 {
            match st.decide(0, 1, "PageReq") {
                Fate::Delay { by } => {
                    assert!(by >= Duration::from_micros(200) && by <= Duration::from_micros(400))
                }
                f => panic!("expected delay, got {f:?}"),
            }
        }
    }
}
