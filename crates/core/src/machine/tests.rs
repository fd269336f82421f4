//! Integration tests for the machine: end-to-end runs across policies,
//! instance scaling, addressing, and accounting invariants.

use super::*;
use crate::arrivals::poisson_arrivals;
use accelflow_sim::engine::EventQueue;

mod runs {
    use super::*;
    use crate::request::{CallSpec, CyclesDist, StageSpec};
    use accelflow_trace::templates::TemplateId;

    fn simple_service() -> ServiceSpec {
        ServiceSpec::new(
            "Simple",
            vec![
                StageSpec::Call(CallSpec::new(TemplateId::T1)),
                StageSpec::Cpu(CyclesDist::new(40_000.0, 0.2)),
                StageSpec::Call(CallSpec::new(TemplateId::T2)),
            ],
        )
    }

    fn db_service() -> ServiceSpec {
        ServiceSpec::new(
            "WithDb",
            vec![
                StageSpec::Call(CallSpec::new(TemplateId::T1)),
                StageSpec::Cpu(CyclesDist::new(30_000.0, 0.2)),
                StageSpec::Call(CallSpec::new(TemplateId::T4)),
                StageSpec::Cpu(CyclesDist::new(20_000.0, 0.2)),
                StageSpec::Parallel(vec![CallSpec::new(TemplateId::T9); 2]),
                StageSpec::Call(CallSpec::new(TemplateId::T2)),
            ],
        )
    }

    fn quick_run(policy: Policy, rps: f64) -> RunReport {
        quick_run_with(MachineConfig::new(policy), rps)
    }

    fn quick_run_with(mut cfg: MachineConfig, rps: f64) -> RunReport {
        cfg.warmup = SimDuration::from_millis(2);
        Machine::run_workload(
            &cfg,
            &[simple_service(), db_service()],
            rps,
            SimDuration::from_millis(30),
            11,
        )
    }

    #[test]
    fn light_load_completes_everything() {
        for policy in [
            Policy::AccelFlow,
            Policy::NonAcc,
            Policy::Relief,
            Policy::CpuCentric,
            Policy::Cohort,
            Policy::Ideal,
        ] {
            let r = quick_run(policy, 300.0);
            assert!(r.offered() > 10, "{policy}: offered {}", r.offered());
            assert!(
                r.completion_ratio() > 0.99,
                "{policy}: completion {}",
                r.completion_ratio()
            );
            let p99 = r.aggregate_latency().percentile_duration(99.0);
            assert!(p99 > SimDuration::ZERO, "{policy}");
            assert!(p99 < SimDuration::from_millis(5), "{policy}: p99 {p99}");
        }
    }

    #[test]
    fn policies_order_under_load() {
        // On a small, contended machine the paper's ordering holds:
        // AccelFlow < RELIEF < Non-acc (p99), with CPU-Centric well
        // above AccelFlow.
        let p99 = |policy| {
            let mut cfg = MachineConfig::new(policy);
            cfg.warmup = SimDuration::from_millis(2);
            cfg.arch.cores = 3;
            let r = Machine::run_workload(
                &cfg,
                &[simple_service(), db_service()],
                3_000.0,
                SimDuration::from_millis(30),
                11,
            );
            r.aggregate_latency().percentile(99.0)
        };
        let af = p99(Policy::AccelFlow);
        let relief = p99(Policy::Relief);
        let cpu = p99(Policy::CpuCentric);
        let non = p99(Policy::NonAcc);
        assert!(af < relief, "AccelFlow {af} vs RELIEF {relief}");
        assert!(af * 3 < cpu * 2, "AccelFlow {af} vs CPU-Centric {cpu}");
        // The Non-acc margin is the noisiest of the three on this tiny
        // 30 ms window (its p99 rides the overload knee): across seeds
        // the ratio ranges ~1.34–1.92×, so assert a 1.25× floor rather
        // than a point estimate.
        assert!(af * 5 < non * 4, "AccelFlow {af} vs Non-acc {non}");
    }

    #[test]
    fn ideal_is_a_lower_bound_for_accelflow() {
        let ideal = quick_run(Policy::Ideal, 2_000.0).aggregate_latency().mean();
        let af = quick_run(Policy::AccelFlow, 2_000.0)
            .aggregate_latency()
            .mean();
        assert!(ideal <= af, "ideal {ideal} accelflow {af}");
    }

    #[test]
    fn accelflow_orchestration_fraction_is_small() {
        let r = quick_run(Policy::AccelFlow, 500.0);
        let frac = r.total_breakdown().orchestration_fraction();
        assert!(frac < 0.10, "orchestration fraction {frac}");
        let relief = quick_run(Policy::Relief, 500.0);
        assert!(
            relief.total_breakdown().orchestration_fraction() > frac,
            "RELIEF must pay more orchestration"
        );
    }

    #[test]
    fn glue_instruction_average_is_plausible() {
        let r = quick_run(Policy::AccelFlow, 500.0);
        let avg = r.totals.mean_glue_instructions();
        // §VII-B2: average ~18 instructions per dispatcher operation.
        assert!((14.0..40.0).contains(&avg), "avg glue {avg}");
        assert!(r.totals.atm_reads > 0, "chains must read the ATM");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = quick_run(Policy::AccelFlow, 1_000.0);
        let b = quick_run(Policy::AccelFlow, 1_000.0);
        assert_eq!(a.completed(), b.completed());
        assert_eq!(
            a.aggregate_latency().percentile(99.0),
            b.aggregate_latency().percentile(99.0)
        );
        assert_eq!(a.totals.dispatcher_instrs, b.totals.dispatcher_instrs);
    }

    #[test]
    fn more_chiplets_cost_latency() {
        let run = |chiplets| {
            let mut cfg = MachineConfig::new(Policy::AccelFlow);
            cfg.warmup = SimDuration::from_millis(2);
            cfg.chiplets = chiplets;
            Machine::run_workload(
                &cfg,
                &[simple_service()],
                1_000.0,
                SimDuration::from_millis(30),
                5,
            )
            .aggregate_latency()
            .mean()
        };
        let two = run(2);
        let six = run(6);
        assert!(six > two, "6-chiplet {six} vs 2-chiplet {two}");
    }

    #[test]
    fn tenant_cap_throttles() {
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.warmup = SimDuration::from_millis(1);
        cfg.tenant_cap = 1;
        let r = Machine::run_workload(
            &cfg,
            &[db_service()],
            3_000.0,
            SimDuration::from_millis(20),
            3,
        );
        assert!(r.totals.tenant_throttled > 0, "cap of 1 must throttle");
        assert!(
            r.completion_ratio() > 0.9,
            "throttling must not lose requests"
        );
    }

    #[test]
    fn slo_deadlines_are_tracked() {
        let mut svc = simple_service();
        svc.slo_slack = Some(0.0001); // impossible deadline
        let mut cfg = MachineConfig::new(Policy::AccelFlowDeadline);
        cfg.warmup = SimDuration::from_millis(1);
        let r = Machine::run_workload(&cfg, &[svc], 500.0, SimDuration::from_millis(20), 3);
        assert!(r.per_service[0].deadline_misses > 0);
        let mut svc = simple_service();
        svc.slo_slack = Some(1e6); // trivially met
        let r = Machine::run_workload(&cfg, &[svc], 500.0, SimDuration::from_millis(20), 3);
        assert_eq!(r.per_service[0].deadline_misses, 0);
    }

    #[test]
    fn saturation_shows_in_completion_ratio() {
        // A 4-core Non-acc server cannot keep up with 20 kRPS/service.
        let mut cfg = MachineConfig::new(Policy::NonAcc);
        cfg.warmup = SimDuration::from_millis(1);
        cfg.arch.cores = 2;
        let r = Machine::run_workload(
            &cfg,
            &[simple_service(), db_service()],
            40_000.0,
            SimDuration::from_millis(15),
            11,
        );
        assert!(
            r.completion_ratio() < 0.97,
            "ratio {}",
            r.completion_ratio()
        );
    }

    #[test]
    fn fig1_attribution_covers_all_categories() {
        let r = quick_run(Policy::NonAcc, 300.0);
        let s = &r.per_service[1]; // WithDb touches every accelerator
        let (shares, app) = s.fig1_shares();
        assert!(app > 0.0);
        let tax: f64 = shares.iter().sum();
        assert!(tax > 0.5, "tax dominates: {tax}");
        assert!(shares[AccelKind::Tcp.id() as usize] > 0.0);
        assert!(shares[AccelKind::Ser.id() as usize] > 0.0);
    }

    #[test]
    fn utilization_and_tlb_stats_populate() {
        let r = quick_run(Policy::AccelFlow, 2_000.0);
        let tcp = AccelKind::Tcp.id() as usize;
        assert!(r.totals.accel_utilization[tcp] > 0.0);
        assert!(r.totals.accel_jobs[tcp] > 0);
        let (hits, misses) = r.totals.tlb[tcp];
        assert!(hits + misses > 0);
        assert!(r.totals.energy.total_j > 0.0);
        assert!(r.totals.dma_bytes > 0);
    }

    #[test]
    fn timeouts_terminate_without_stale_event_panics() {
        // Regression: a TCP timeout terminates and *frees* the request
        // while sibling parallel calls are still in flight. Their
        // PeDone/HopArrive/CallDone events used to hit the freed slot
        // and panic on `expect("request alive")`, and the tenant slots
        // held by those siblings leaked — the latent path was
        // unreachable only because every ExternalSpec median sits far
        // below the default 20 ms timeout. A 10 µs timeout forces it.
        // Two *parallel* DB awaits race: the first arm's timeout frees
        // the request while the second arm's timeout (or response) is
        // still queued.
        let racing = ServiceSpec::new(
            "RacingAwaits",
            vec![
                StageSpec::Call(CallSpec::new(TemplateId::T1)),
                StageSpec::Parallel(vec![CallSpec::new(TemplateId::T4); 2]),
                StageSpec::Call(CallSpec::new(TemplateId::T2)),
            ],
        );
        for policy in [Policy::AccelFlow, Policy::NonAcc, Policy::CpuCentric] {
            let mut cfg = MachineConfig::new(policy);
            cfg.warmup = SimDuration::from_millis(1);
            cfg.tcp_timeout = SimDuration::from_micros(10);
            cfg.audit = true;
            let r = Machine::run_workload(
                &cfg,
                &[racing.clone(), db_service()],
                1_000.0,
                SimDuration::from_millis(20),
                7,
            );
            assert!(r.totals.tcp_timeouts > 0, "{policy}: timeouts must fire");
            assert!(
                r.per_service[0].errors > 0,
                "{policy}: timed-out requests error out"
            );
            assert!(r.audit.enabled);
            assert!(
                r.audit.is_clean(),
                "{policy}: audit violations {:?}",
                r.audit.violations
            );
        }
    }

    #[test]
    fn audit_runs_and_comes_back_clean() {
        #[cfg(debug_assertions)]
        assert!(
            MachineConfig::new(Policy::AccelFlow).audit,
            "debug builds audit by default"
        );
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.audit = true;
        let r = quick_run_with(cfg, 1_000.0);
        assert!(r.audit.enabled);
        assert!(r.audit.checks > 1_000, "checks ran: {}", r.audit.checks);
        assert!(r.audit.is_clean(), "{:?}", r.audit.violations);
        // Opting out produces an inert report.
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.warmup = SimDuration::from_millis(2);
        cfg.audit = false;
        let r = Machine::run_workload(
            &cfg,
            &[simple_service()],
            300.0,
            SimDuration::from_millis(10),
            3,
        );
        assert!(!r.audit.enabled);
        assert_eq!(r.audit.checks, 0);
    }

    #[test]
    fn tenant_slots_drain_after_timeouts_under_tight_cap() {
        // The leaked-slot variant of the timeout bug: with a tiny
        // tenant cap, leaked slots would throttle the tenant forever
        // and the audit's end-of-run tenant-slot check would trip.
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.warmup = SimDuration::from_millis(1);
        cfg.tcp_timeout = SimDuration::from_micros(10);
        cfg.tenant_cap = 4;
        cfg.audit = true;
        let r = Machine::run_workload(
            &cfg,
            &[db_service()],
            2_000.0,
            SimDuration::from_millis(20),
            13,
        );
        assert!(r.totals.tcp_timeouts > 0);
        assert!(r.audit.is_clean(), "{:?}", r.audit.violations);
        assert!(
            r.completion_ratio() > 0.5,
            "leaked slots would starve the tenant: {}",
            r.completion_ratio()
        );
    }

    #[test]
    fn arrival_list_is_sorted_and_reusable() {
        let lib = TraceLibrary::standard();
        let timing = ServiceTimeModel::calibrated(ArchConfig::icelake().core_clock);
        let arr = poisson_arrivals(
            &[simple_service(), db_service()],
            &lib,
            &timing,
            1_000.0,
            SimDuration::from_millis(10),
            7,
        );
        assert!(arr.len() > 10);
        for w in arr.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        // Common random numbers: the same arrivals run under two
        // policies.
        let services = [simple_service(), db_service()];
        let cfg_a = MachineConfig::new(Policy::AccelFlow);
        let cfg_b = MachineConfig::new(Policy::Relief);
        let ra = Machine::run_arrivals(
            &cfg_a,
            &services,
            arr.clone(),
            SimDuration::from_millis(10),
            7,
        );
        let rb = Machine::run_arrivals(&cfg_b, &services, arr, SimDuration::from_millis(10), 7);
        assert_eq!(ra.offered(), rb.offered());
    }

    #[test]
    fn parallel_calls_attributed_distinctly_in_telemetry() {
        // Regression for the CallDone/Timeout identity loss: both
        // events carry step/par, and the handlers must thread them to
        // telemetry so two parallel arms of the *same* step stay
        // distinguishable (arg = step << 8 | par).
        let svc = ServiceSpec::new(
            "TwoArms",
            vec![
                StageSpec::Call(CallSpec::new(TemplateId::T1)),
                StageSpec::Parallel(vec![CallSpec::new(TemplateId::T1); 2]),
            ],
        );
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.warmup = SimDuration::ZERO;
        cfg.telemetry = true;
        let r = Machine::run_workload(&cfg, &[svc], 200.0, SimDuration::from_millis(10), 3);
        assert!(r.telemetry.enabled);
        use std::collections::HashMap;
        // Per request, the args seen on its call_done instants.
        let mut per_req: HashMap<u32, Vec<u64>> = HashMap::new();
        for rec in &r.telemetry.records {
            if rec.name == "call_done" {
                per_req
                    .entry(rec.req.expect("call_done has a req"))
                    .or_default()
                    .push(rec.arg);
            }
        }
        let parallel_arg = |par: u8| crate::machine::lifecycle::call_arg(1, par);
        let mut saw_both_arms = false;
        for (req, args) in &per_req {
            // Step 0 then the two parallel arms of step 1: three
            // distinct args, never a duplicate.
            let mut sorted = args.clone();
            sorted.sort_unstable();
            let mut deduped = sorted.clone();
            deduped.dedup();
            assert_eq!(
                sorted, deduped,
                "req {req}: duplicate call_done args {args:?}"
            );
            if args.contains(&parallel_arg(0)) && args.contains(&parallel_arg(1)) {
                saw_both_arms = true;
            }
        }
        assert!(
            saw_both_arms,
            "some request must finish both parallel arms of step 1"
        );
    }
}

mod resilience_tests {
    use super::*;
    use crate::faults::{FaultClass, FaultConfig};
    use crate::request::{CallSpec, CyclesDist, ExternalSpec, StageSpec};
    use accelflow_trace::templates::TemplateId;

    fn mixed_services() -> Vec<ServiceSpec> {
        vec![
            ServiceSpec::new(
                "Simple",
                vec![
                    StageSpec::Call(CallSpec::new(TemplateId::T1)),
                    StageSpec::Cpu(CyclesDist::new(40_000.0, 0.2)),
                    StageSpec::Call(CallSpec::new(TemplateId::T2)),
                ],
            ),
            ServiceSpec::new(
                "WithDb",
                vec![
                    StageSpec::Call(CallSpec::new(TemplateId::T1)),
                    StageSpec::Call(CallSpec::new(TemplateId::T4)),
                    StageSpec::Parallel(vec![CallSpec::new(TemplateId::T9); 2]),
                    StageSpec::Call(CallSpec::new(TemplateId::T2)),
                ],
            ),
        ]
    }

    fn faulty_run(faults: FaultConfig, rps: f64, seed: u64) -> RunReport {
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.warmup = SimDuration::from_millis(1);
        cfg.audit = true;
        cfg.faults = faults;
        Machine::run_workload(
            &cfg,
            &mixed_services(),
            rps,
            SimDuration::from_millis(20),
            seed,
        )
    }

    #[test]
    fn stale_timeout_for_a_completed_call_is_ignored() {
        // Regression: a Timeout event whose call already completed —
        // while a sibling arm keeps the request alive on the same step
        // — must not re-enter accounting. Before the `completed_pars`
        // guard it counted a timeout, re-recorded the call finish
        // (tripping the auditor's call-finished-once invariant), and
        // wrongfully terminated the request.
        let mut slow = CallSpec::new(TemplateId::T4);
        // Deterministic 5 ms external wait: no jitter, no stragglers,
        // no losses, so the spurious timer below provably lands after
        // arm 0 completed and before arm 1's response.
        slow.external = ExternalSpec {
            median: SimDuration::from_millis(5),
            sigma: 0.0,
            tail_p: 0.0,
            tail_mult: 1.0,
            loss_p: 0.0,
        };
        let svc = ServiceSpec::new(
            "StaleTimer",
            vec![StageSpec::Parallel(vec![
                CallSpec::new(TemplateId::T1),
                slow,
            ])],
        );
        let lib = TraceLibrary::standard();
        let timing = ServiceTimeModel::calibrated(ArchConfig::icelake().core_clock);
        let mut arrivals = poisson_arrivals(
            &[svc],
            &lib,
            &timing,
            500.0,
            SimDuration::from_millis(10),
            3,
        );
        let first = arrivals.swap_remove(0);
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.warmup = SimDuration::ZERO;
        cfg.audit = true;
        let end = SimTime::ZERO + SimDuration::from_millis(10);
        let mut machine = Machine::new(cfg, vec!["StaleTimer".into()], end, 3);
        let mut queue = EventQueue::with_capacity(0);
        let at = first.at;
        let idx = machine.push_arrival(first);
        queue.schedule_at(at, Ev::Arrive(idx));
        // The spurious timer: arm (step 0, par 0) is the fast T1 call,
        // long done by 2 ms; arm 1's response arrives at ~5 ms.
        queue.schedule_at(
            SimTime::ZERO + SimDuration::from_millis(2),
            Ev::Timeout {
                req: 0,
                step: 0,
                par: 0,
            },
        );
        queue.run_until(
            SimTime::ZERO + SimDuration::from_millis(40),
            |now, ev, q| machine.handle_event(now, ev, q),
        );
        let r = machine.ctx.into_report(queue.now(), end);
        assert_eq!(r.totals.tcp_timeouts, 0, "stale timer must not count");
        assert_eq!(r.completed(), 1, "the request must still complete");
        assert_eq!(r.per_service[0].errors, 0);
        assert!(r.audit.is_clean(), "{:?}", r.audit.violations);
    }

    #[test]
    fn every_fault_class_injects_and_recovers() {
        let r = faulty_run(FaultConfig::uniform(50.0), 3_000.0, 9);
        let f = &r.faults;
        assert!(f.stalls > 0, "{f:?}");
        assert!(f.dma_errors > 0, "{f:?}");
        assert!(f.tlb_shootdowns > 0, "{f:?}");
        assert!(f.atm_misses > 0, "{f:?}");
        assert!(f.stall_dark_time > SimDuration::ZERO);
        assert!(f.injected() >= f.stalls + f.dma_errors);
        // Recovery happened and no request was lost or double-counted.
        assert!(f.recovery_actions() > 0, "{f:?}");
        assert!(r.audit.is_clean(), "{:?}", r.audit.violations);
        assert!(r.completion_ratio() > 0.8, "{}", r.completion_ratio());
    }

    #[test]
    fn queue_drops_hit_backlogged_queues() {
        // Queue-entry drops need occupied SRAM queues: slow the
        // accelerators down so work queues up, then drop aggressively.
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.warmup = SimDuration::from_millis(1);
        cfg.audit = true;
        cfg.speedup_scale = 0.25;
        cfg.arch.pes_per_accelerator = 2;
        cfg.faults = FaultConfig::only(FaultClass::QueueDrop, 200.0);
        let r = Machine::run_workload(
            &cfg,
            &mixed_services(),
            5_000.0,
            SimDuration::from_millis(20),
            13,
        );
        assert!(r.faults.queue_drops > 0, "{:?}", r.faults);
        assert!(r.audit.is_clean(), "{:?}", r.audit.violations);
        assert!(r.completion_ratio() > 0.7, "{}", r.completion_ratio());
    }

    #[test]
    fn exhausted_retries_degrade_to_cpu_fallback() {
        let mut faults = FaultConfig::only(FaultClass::DmaError, 100.0);
        faults.max_retries = 0; // every fault goes straight to degrade
        let r = faulty_run(faults, 2_000.0, 5);
        assert!(r.faults.dma_errors > 0);
        assert_eq!(r.faults.retries, 0, "budget 0 leaves no retries");
        assert!(r.faults.degraded > 0, "{:?}", r.faults);
        assert!(r.totals.fallbacks >= r.faults.degraded);
        assert!(r.audit.is_clean(), "{:?}", r.audit.violations);
        assert!(r.completion_ratio() > 0.8, "{}", r.completion_ratio());
    }

    #[test]
    fn same_seed_fault_runs_are_identical() {
        let a = faulty_run(FaultConfig::uniform(20.0), 2_000.0, 17);
        let b = faulty_run(FaultConfig::uniform(20.0), 2_000.0, 17);
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.completed(), b.completed());
        assert_eq!(
            a.aggregate_latency().percentile(99.0),
            b.aggregate_latency().percentile(99.0)
        );
    }

    #[test]
    fn stalls_darken_stations_without_losing_requests() {
        let mut faults = FaultConfig::only(FaultClass::AccelStall, 30.0);
        faults.stall_duration = SimDuration::from_micros(200);
        let r = faulty_run(faults, 2_000.0, 21);
        let f = &r.faults;
        assert!(f.stalls > 0);
        assert!(f.stall_dark_time >= SimDuration::from_micros(100));
        // Jobs caught mid-flight by a stall re-enter through recovery.
        assert!(f.jobs_failed > 0, "{f:?}");
        assert!(r.audit.is_clean(), "{:?}", r.audit.violations);
        assert!(r.completion_ratio() > 0.8, "{}", r.completion_ratio());
    }
}

mod instance_tests {
    use super::*;
    use crate::request::{CallSpec, CyclesDist, StageSpec};
    use accelflow_trace::templates::TemplateId;

    fn heavy_service() -> ServiceSpec {
        ServiceSpec::new(
            "Heavy",
            vec![
                StageSpec::Call(CallSpec::new(TemplateId::T1)),
                StageSpec::Cpu(CyclesDist::new(20_000.0, 0.2)),
                StageSpec::Call(CallSpec::new(TemplateId::T2)),
            ],
        )
    }

    fn run_with_instances(instances: usize, pes: usize, rps: f64) -> RunReport {
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.warmup = SimDuration::from_millis(2);
        cfg.instances_per_accel = instances;
        cfg.arch.pes_per_accelerator = pes;
        Machine::run_workload(
            &cfg,
            &[heavy_service()],
            rps,
            SimDuration::from_millis(25),
            17,
        )
    }

    #[test]
    fn multiple_instances_complete_work() {
        let r = run_with_instances(3, 2, 2_000.0);
        assert!(r.completion_ratio() > 0.99, "{}", r.completion_ratio());
        // Jobs spread across instances of each kind (aggregated per
        // kind in the report).
        assert!(r.totals.accel_jobs[AccelKind::Tcp.id() as usize] > 0);
    }

    #[test]
    fn more_instances_reduce_queueing() {
        // One 1-PE instance saturates; three instances of the same
        // accelerator absorb the load.
        let one = run_with_instances(1, 1, 18_000.0);
        let three = run_with_instances(3, 1, 18_000.0);
        let m1 = one.aggregate_latency().mean();
        let m3 = three.aggregate_latency().mean();
        assert!(m3 < m1, "3 instances {m3} must beat 1 instance {m1}");
    }

    #[test]
    fn core_retries_across_instances_before_fallback() {
        // Tiny queues + several instances: the Enqueue retry loop finds
        // space on a sibling instance instead of falling back.
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.warmup = SimDuration::from_millis(1);
        cfg.instances_per_accel = 4;
        cfg.arch.pes_per_accelerator = 1;
        cfg.arch.input_queue_entries = 1;
        cfg.arch.overflow_entries = 4;
        cfg.speedup_scale = 0.05;
        let r = Machine::run_workload(
            &cfg,
            &[heavy_service()],
            8_000.0,
            SimDuration::from_millis(15),
            5,
        );
        // Rejections happened (retries recorded) but work completed.
        assert!(r.completion_ratio() > 0.9, "{}", r.completion_ratio());
    }

    #[test]
    #[should_panic(expected = "instances_per_accel")]
    fn zero_instances_rejected() {
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.instances_per_accel = 0;
        let _ = Machine::new(cfg, vec![], SimTime::ZERO, 1);
    }

    #[test]
    fn relief_shared_queue_spans_instances() {
        let mut cfg = MachineConfig::new(Policy::Relief);
        cfg.warmup = SimDuration::from_millis(2);
        cfg.instances_per_accel = 2;
        let r = Machine::run_workload(
            &cfg,
            &[heavy_service()],
            2_000.0,
            SimDuration::from_millis(25),
            8,
        );
        assert!(r.completion_ratio() > 0.99);
        assert!(r.totals.manager_jobs > 0);
    }
}

mod addressing_tests {
    use super::*;

    #[test]
    fn chiplet_groups_partition_all_kinds() {
        for chiplets in [1usize, 2, 3, 4, 6] {
            let mut cfg = MachineConfig::new(Policy::AccelFlow);
            cfg.chiplets = chiplets;
            let groups = cfg.chiplet_groups();
            assert_eq!(groups.len(), chiplets);
            let mut all: Vec<u8> = groups.into_iter().flatten().collect();
            all.sort_unstable();
            assert_eq!(all, (0..9).collect::<Vec<u8>>(), "{chiplets} chiplets");
            // LdB always rides with the cores (chiplet 0).
            let groups = cfg.chiplet_groups();
            assert!(groups[0].contains(&AccelKind::Ldb.id()));
        }
    }

    #[test]
    #[should_panic(expected = "unsupported chiplet count")]
    fn five_chiplets_rejected() {
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.chiplets = 5;
        let _ = cfg.chiplet_groups();
    }
}

mod accounting_tests {
    use super::*;
    use crate::request::{CallSpec, CyclesDist, StageSpec};
    use accelflow_trace::templates::TemplateId;

    fn db_heavy() -> ServiceSpec {
        ServiceSpec::new(
            "DbHeavy",
            vec![
                StageSpec::Call(CallSpec::new(TemplateId::T1)),
                StageSpec::Cpu(CyclesDist::new(30_000.0, 0.2)),
                StageSpec::Call(CallSpec::new(TemplateId::T4)),
                StageSpec::Call(CallSpec::new(TemplateId::T2)),
            ],
        )
    }

    fn unloaded(policy: Policy) -> RunReport {
        let mut cfg = MachineConfig::new(policy);
        cfg.warmup = SimDuration::from_millis(1);
        Machine::run_workload(&cfg, &[db_heavy()], 300.0, SimDuration::from_millis(40), 23)
    }

    #[test]
    fn breakdown_components_populate_sanely() {
        let r = unloaded(Policy::AccelFlow);
        let b = r.total_breakdown();
        assert!(b.cpu > SimDuration::ZERO, "app logic ran");
        assert!(b.accel > SimDuration::ZERO, "accelerators ran");
        assert!(b.communication > SimDuration::ZERO, "data moved");
        assert!(b.external > SimDuration::ZERO, "the DB was consulted");
        // Unloaded AccelFlow: orchestration is a sliver (Fig 17).
        assert!(
            b.orchestration_fraction() < 0.05,
            "{}",
            b.orchestration_fraction()
        );
        // Wall-clock sanity: per-request on-server time is bounded by
        // per-request total latency.
        let per_req_server = b.on_server().as_micros_f64() / r.completed() as f64;
        let mean = r.aggregate_latency().mean_duration().as_micros_f64();
        assert!(
            per_req_server < mean * 1.05,
            "on-server {per_req_server} vs mean {mean}"
        );
    }

    #[test]
    fn manager_accounting_only_for_manager_policies() {
        assert_eq!(unloaded(Policy::AccelFlow).totals.manager_jobs, 0);
        assert_eq!(unloaded(Policy::CpuCentric).totals.manager_jobs, 0);
        assert!(unloaded(Policy::Relief).totals.manager_jobs > 0);
        assert!(
            unloaded(Policy::Direct).totals.manager_jobs > 0,
            "fallback bounces"
        );
    }

    #[test]
    fn dispatcher_accounting_only_for_trace_policies() {
        assert!(unloaded(Policy::AccelFlow).totals.dispatches > 0);
        assert!(
            unloaded(Policy::AccelFlow).totals.atm_reads > 0,
            "T4 chains"
        );
        assert_eq!(unloaded(Policy::Relief).totals.dispatches, 0);
        assert_eq!(unloaded(Policy::NonAcc).totals.dispatches, 0);
        assert_eq!(unloaded(Policy::NonAcc).totals.dma_bytes, 0);
    }

    #[test]
    fn ideal_pays_no_orchestration() {
        let r = unloaded(Policy::Ideal);
        // Ideal still submits from cores but skips dispatcher/manager
        // charges on the trace path.
        let b = r.total_breakdown();
        assert!(b.orchestration.as_micros_f64() / (r.completed() as f64) < 1.0);
    }

    #[test]
    fn tax_attribution_is_policy_independent() {
        // Fig 1 attribution measures the workload, not the machine:
        // identical arrivals must yield identical per-kind tax sums.
        let lib = TraceLibrary::standard();
        let timing = ServiceTimeModel::calibrated(ArchConfig::icelake().core_clock);
        let arrivals = poisson_arrivals(
            &[db_heavy()],
            &lib,
            &timing,
            300.0,
            SimDuration::from_millis(30),
            9,
        );
        let run = |policy| {
            let mut cfg = MachineConfig::new(policy);
            cfg.warmup = SimDuration::from_millis(1);
            Machine::run_arrivals(
                &cfg,
                &[db_heavy()],
                arrivals.clone(),
                SimDuration::from_millis(30),
                9,
            )
        };
        let a = run(Policy::AccelFlow);
        let b = run(Policy::NonAcc);
        assert_eq!(a.per_service[0].tax_by_kind, b.per_service[0].tax_by_kind);
        assert_eq!(a.per_service[0].app_logic, b.per_service[0].app_logic);
    }
}
