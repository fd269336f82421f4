//! The request table's recycling slab, driven by a minimal admission
//! chain straight over the machine's handlers.

use super::*;
use crate::arrivals::poisson_arrivals;
use crate::request::{CallSpec, CyclesDist, StageSpec};
use accelflow_sim::engine::EventQueue;
use accelflow_trace::templates::TemplateId;

/// The request table is a recycling slab: after a drained run every
/// slot has been freed, the arena footprint is bounded by peak
/// concurrency rather than arrival count, and the stable
/// per-arrival handles all read as gone — the generation tags turn
/// them into misses instead of aliasing a recycled slot.
#[test]
fn request_slab_recycles_and_stays_bounded() {
    let svc = ServiceSpec::new(
        "Simple",
        vec![
            StageSpec::Call(CallSpec::new(TemplateId::T1)),
            StageSpec::Cpu(CyclesDist::new(40_000.0, 0.2)),
            StageSpec::Call(CallSpec::new(TemplateId::T2)),
        ],
    );
    let lib = TraceLibrary::standard();
    let timing = ServiceTimeModel::calibrated(ArchConfig::icelake().core_clock);
    let window = SimDuration::from_millis(20);
    let arrivals = poisson_arrivals(&[svc], &lib, &timing, 2_000.0, window, 7);
    let n = arrivals.len();
    assert!(n > 20, "workload too small to exercise recycling");
    let mut cfg = MachineConfig::new(Policy::AccelFlow);
    cfg.warmup = SimDuration::ZERO;
    let end = SimTime::ZERO + window;
    let mut machine = Machine::new(cfg, vec!["Simple".into()], end, 7);
    let mut queue = EventQueue::with_capacity(0);
    // The fleet's admission chain in miniature: the next arrival is
    // pushed as the previous one lands.
    let mut pending = arrivals.into_iter();
    let mut feed = |machine: &mut Machine, q: &mut EventQueue<Ev>| {
        if let Some(a) = pending.next() {
            let at = a.at;
            let idx = machine.push_arrival(a);
            q.schedule_at(at, Ev::Arrive(idx));
        }
    };
    feed(&mut machine, &mut queue);
    queue.run_until(end + SimDuration::from_millis(30), |now, ev, q| {
        let arrive = matches!(ev, Ev::Arrive(_));
        machine.handle_event(now, ev, q);
        if arrive {
            feed(&mut machine, q);
        }
    });
    let ctx = &machine.ctx;
    assert_eq!(ctx.requests.len(), 0, "every request slot freed");
    assert!(
        ctx.requests.capacity_used() < n,
        "arena bounded by concurrency: {} slots for {} arrivals",
        ctx.requests.capacity_used(),
        n
    );
    for i in 0..n as u32 {
        assert!(ctx.req_gone(i), "freed handle {i} must read as gone");
    }
}
