//! Point-to-point links with latency and smoltcp-style fault injection.
//!
//! A [`Link`] does no I/O: given a frame and an RNG it produces a
//! [`DeliveryPlan`] — zero or more (delay, bytes) deliveries — which the
//! discrete-event engine schedules. Faults (drop / duplicate / corrupt /
//! reorder-via-jitter) are applied here so every layer above stays
//! deterministic and testable.

use rand::Rng;

use fork_telemetry::{BlockTag, TraceEventKind, TraceSink};

/// Latency model for one link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencyModel {
    /// Fixed propagation delay in milliseconds.
    pub base_ms: u64,
    /// Uniform extra jitter in milliseconds (0..=jitter_ms sampled per
    /// frame; jitter larger than the inter-frame gap yields reordering).
    pub jitter_ms: u64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        // Rough public-internet numbers for 2016 Ethereum peers.
        LatencyModel {
            base_ms: 80,
            jitter_ms: 120,
        }
    }
}

/// Rejected [`FaultPlan`] probability.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlanError {
    /// Which probability was invalid.
    pub field: &'static str,
    /// The offending value.
    pub value: f64,
}

impl std::fmt::Display for FaultPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "invalid {} probability {} (must be a finite value >= 0)",
            self.field, self.value
        )
    }
}

impl std::error::Error for FaultPlanError {}

/// Fault-injection knobs, mirroring the smoltcp examples' `--drop-chance`
/// style options.
///
/// Probabilities are validated once, at construction: NaN and negative
/// values are rejected, values above 1.0 are clamped to 1.0. Consumers can
/// therefore use the accessors directly without re-clamping.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    drop_chance: f64,
    duplicate_chance: f64,
    corrupt_chance: f64,
}

impl FaultPlan {
    /// No faults.
    pub const NONE: FaultPlan = FaultPlan {
        drop_chance: 0.0,
        duplicate_chance: 0.0,
        corrupt_chance: 0.0,
    };

    /// Validates and builds a plan. Rejects NaN / infinite / negative
    /// probabilities; clamps values above 1.0 to 1.0.
    pub fn new(
        drop_chance: f64,
        duplicate_chance: f64,
        corrupt_chance: f64,
    ) -> Result<FaultPlan, FaultPlanError> {
        let check = |field: &'static str, value: f64| -> Result<f64, FaultPlanError> {
            if !value.is_finite() || value < 0.0 {
                return Err(FaultPlanError { field, value });
            }
            Ok(value.min(1.0))
        };
        Ok(FaultPlan {
            drop_chance: check("drop", drop_chance)?,
            duplicate_chance: check("duplicate", duplicate_chance)?,
            corrupt_chance: check("corrupt", corrupt_chance)?,
        })
    }

    /// The smoltcp documentation's suggested stress setting (15% drop, 15%
    /// corrupt).
    pub fn stress() -> FaultPlan {
        FaultPlan {
            drop_chance: 0.15,
            duplicate_chance: 0.05,
            corrupt_chance: 0.15,
        }
    }

    /// Probability a frame is silently dropped.
    pub fn drop_chance(&self) -> f64 {
        self.drop_chance
    }

    /// Probability a frame is delivered twice.
    pub fn duplicate_chance(&self) -> f64 {
        self.duplicate_chance
    }

    /// Probability one random byte of the frame is flipped.
    pub fn corrupt_chance(&self) -> f64 {
        self.corrupt_chance
    }

    /// True when every probability is zero (the link is clean).
    pub fn is_none(&self) -> bool {
        self.drop_chance == 0.0 && self.duplicate_chance == 0.0 && self.corrupt_chance == 0.0
    }
}

/// A unidirectional link.
#[derive(Debug, Clone, Default)]
pub struct Link {
    /// Latency model.
    pub latency: LatencyModel,
    /// Fault plan.
    pub faults: FaultPlan,
}

/// One scheduled delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// Delay from send time, in milliseconds.
    pub delay_ms: u64,
    /// Frame bytes as they will arrive (possibly corrupted).
    pub bytes: Vec<u8>,
}

/// The deliveries produced for one sent frame (empty = dropped).
pub type DeliveryPlan = Vec<Delivery>;

impl Link {
    /// A link with the given latency and no faults.
    pub fn with_latency(base_ms: u64, jitter_ms: u64) -> Self {
        Link {
            latency: LatencyModel { base_ms, jitter_ms },
            faults: FaultPlan::NONE,
        }
    }

    /// Computes the deliveries for `frame`.
    ///
    /// The `> 0.0` guards are not redundant with `gen_bool`: a zero-chance
    /// fault must not consume an RNG draw, so clean links stay
    /// draw-for-draw identical to links that never had fault code at all.
    pub fn transmit<R: Rng>(&self, frame: &[u8], rng: &mut R) -> DeliveryPlan {
        if self.faults.drop_chance > 0.0 && rng.gen_bool(self.faults.drop_chance) {
            return Vec::new();
        }
        let copies =
            if self.faults.duplicate_chance > 0.0 && rng.gen_bool(self.faults.duplicate_chance) {
                2
            } else {
                1
            };
        let mut plan = Vec::with_capacity(copies);
        for _ in 0..copies {
            let mut bytes = frame.to_vec();
            if !bytes.is_empty()
                && self.faults.corrupt_chance > 0.0
                && rng.gen_bool(self.faults.corrupt_chance)
            {
                let idx = rng.gen_range(0..bytes.len());
                let mask = rng.gen_range(1..=255u8);
                bytes[idx] ^= mask;
            }
            let jitter = if self.latency.jitter_ms > 0 {
                rng.gen_range(0..=self.latency.jitter_ms)
            } else {
                0
            };
            plan.push(Delivery {
                delay_ms: self.latency.base_ms + jitter,
                bytes,
            });
        }
        plan
    }
}

/// Emits the send-side trace events for one [`Link::transmit`] outcome: a
/// [`TraceEventKind::GossipSent`] at `from` (peer = `to`) per scheduled
/// delivery, or a [`TraceEventKind::GossipDropped`] with detail `"link"`
/// when the plan came back empty (the drop fault fired). Frames that carry
/// no block (`block` = `None` — status, transactions, announcements) emit
/// nothing: the trace is a *block*-lifecycle record.
pub fn trace_transmit(
    sink: &TraceSink,
    plan: &DeliveryPlan,
    from: u32,
    to: u32,
    block: Option<(BlockTag, u64)>,
) {
    let Some((tag, number)) = block else { return };
    if plan.is_empty() {
        sink.record_full(
            from,
            tag,
            number,
            TraceEventKind::GossipDropped,
            Some(to),
            "link",
        );
        return;
    }
    for _ in plan {
        sink.record_full(from, tag, number, TraceEventKind::GossipSent, Some(to), "");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn clean_link_delivers_verbatim_with_base_latency() {
        let link = Link::with_latency(50, 0);
        let mut r = rng();
        let plan = link.transmit(b"hello", &mut r);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].bytes, b"hello");
        assert_eq!(plan[0].delay_ms, 50);
    }

    #[test]
    fn jitter_bounded() {
        let link = Link::with_latency(100, 30);
        let mut r = rng();
        for _ in 0..200 {
            let plan = link.transmit(b"x", &mut r);
            let d = plan[0].delay_ms;
            assert!((100..=130).contains(&d));
        }
    }

    #[test]
    fn drop_rate_statistics() {
        let mut link = Link::with_latency(10, 0);
        link.faults = FaultPlan::new(0.30, 0.0, 0.0).unwrap();
        let mut r = rng();
        let delivered = (0..5_000)
            .filter(|_| !link.transmit(b"f", &mut r).is_empty())
            .count();
        let rate = delivered as f64 / 5_000.0;
        assert!((rate - 0.70).abs() < 0.03, "delivery rate {rate}");
    }

    #[test]
    fn duplicates_produce_two_copies() {
        let mut link = Link::with_latency(10, 0);
        link.faults = FaultPlan::new(0.0, 1.0, 0.0).unwrap();
        let mut r = rng();
        let plan = link.transmit(b"dup", &mut r);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].bytes, b"dup");
        assert_eq!(plan[1].bytes, b"dup");
    }

    #[test]
    fn corruption_flips_exactly_one_byte() {
        let mut link = Link::with_latency(10, 0);
        link.faults = FaultPlan::new(0.0, 0.0, 1.0).unwrap();
        let mut r = rng();
        let frame = vec![0u8; 64];
        for _ in 0..100 {
            let plan = link.transmit(&frame, &mut r);
            let diff: usize = plan[0]
                .bytes
                .iter()
                .zip(&frame)
                .filter(|(a, b)| a != b)
                .count();
            assert_eq!(diff, 1);
        }
    }

    #[test]
    fn empty_frame_never_corrupted() {
        let mut link = Link::with_latency(10, 0);
        link.faults = FaultPlan::new(0.0, 0.0, 1.0).unwrap();
        let mut r = rng();
        let plan = link.transmit(&[], &mut r);
        assert_eq!(plan[0].bytes, Vec::<u8>::new());
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mut link = Link::with_latency(10, 50);
        link.faults = FaultPlan::stress();
        let run = || {
            let mut r = StdRng::seed_from_u64(7);
            (0..100)
                .map(|i| link.transmit(&[i as u8; 16], &mut r))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn fault_plan_accepts_boundaries() {
        let p = FaultPlan::new(0.0, 0.5, 1.0).unwrap();
        assert_eq!(p.drop_chance(), 0.0);
        assert_eq!(p.duplicate_chance(), 0.5);
        assert_eq!(p.corrupt_chance(), 1.0);
        assert!(!p.is_none());
        assert!(FaultPlan::NONE.is_none());
        assert!(FaultPlan::default().is_none());
    }

    #[test]
    fn fault_plan_clamps_above_one() {
        let p = FaultPlan::new(1.5, 2.0, 100.0).unwrap();
        assert_eq!(p.drop_chance(), 1.0);
        assert_eq!(p.duplicate_chance(), 1.0);
        assert_eq!(p.corrupt_chance(), 1.0);
    }

    #[test]
    fn trace_transmit_maps_plans_to_hop_events() {
        let sink = TraceSink::new();
        let tag: BlockTag = [9; 32];
        let delivered = vec![Delivery {
            delay_ms: 10,
            bytes: vec![1],
        }];
        let duplicated = vec![delivered[0].clone(), delivered[0].clone()];
        let dropped: DeliveryPlan = Vec::new();

        trace_transmit(&sink, &delivered, 1, 2, Some((tag, 5)));
        trace_transmit(&sink, &duplicated, 1, 3, Some((tag, 5)));
        trace_transmit(&sink, &dropped, 1, 4, Some((tag, 5)));
        trace_transmit(&sink, &delivered, 1, 5, None); // non-block frame

        let events = sink.events();
        assert_eq!(events.len(), 4, "1 sent + 2 sent (dup) + 1 dropped");
        assert_eq!(events[0].kind, TraceEventKind::GossipSent);
        assert_eq!((events[0].node, events[0].peer), (1, Some(2)));
        assert_eq!(events[2].peer, Some(3));
        assert_eq!(events[3].kind, TraceEventKind::GossipDropped);
        assert_eq!(events[3].detail, "link");
        assert_eq!(events[3].peer, Some(4));
    }

    #[test]
    fn fault_plan_rejects_nan_negative_and_infinite() {
        for (d, u, c, field) in [
            (f64::NAN, 0.0, 0.0, "drop"),
            (0.0, -0.1, 0.0, "duplicate"),
            (0.0, 0.0, f64::INFINITY, "corrupt"),
            (f64::NEG_INFINITY, 0.0, 0.0, "drop"),
        ] {
            let err = FaultPlan::new(d, u, c).unwrap_err();
            assert_eq!(err.field, field, "{err}");
        }
    }

    #[test]
    fn clamped_plan_never_consumes_extra_draws() {
        // A plan clamped from 1.5 must behave exactly like 1.0 — every
        // frame dropped, no statistical residue from the overshoot.
        let mut link = Link::with_latency(10, 0);
        link.faults = FaultPlan::new(1.5, 0.0, 0.0).unwrap();
        let mut r = rng();
        for _ in 0..100 {
            assert!(link.transmit(b"x", &mut r).is_empty());
        }
    }
}
