//! RTOS scheduling model tests (the paper's named future work):
//! fixed-priority dispatch and worst-case queueing delay on a contended
//! processing element.

use tut_profile::application::ProcessType;
use tut_profile::platform::ComponentKind;
use tut_profile::SystemModel;
use tut_profile_core::TagValue;
use tut_sim::report::ProcessStats;
use tut_sim::{SimConfig, Simulation};
use tut_uml::action::{CostClass, Expr, Statement};
use tut_uml::statemachine::{StateMachine, Trigger};

/// A zero-cost environment generator drives two workers (`hi`, priority
/// 10, and `lo`, priority 1) sharing one CPU: each Job costs ~50 us of
/// CPU and jobs arrive every 80 us per worker — 125 % combined load, so
/// someone must fall behind and priority dispatch decides who.
fn contended_system() -> SystemModel {
    let mut s = SystemModel::new("Contended");
    let top = s.model.add_class("Top");
    s.apply(top, |t| t.application).unwrap();
    let job = s.model.add_signal("Job");

    let worker = |s: &mut SystemModel, name: &str| {
        let class = s.model.add_class(name);
        s.apply(class, |t| t.application_component).unwrap();
        let pin = s.model.add_port(class, "in");
        s.model.port_mut(pin).add_provided(job);
        let mut sm = StateMachine::new(format!("{name}B"));
        let run = sm.add_state("Run");
        sm.set_initial(run);
        sm.add_transition(
            run,
            run,
            Trigger::Signal(job),
            None,
            vec![Statement::Compute {
                class: CostClass::Control,
                amount: Expr::int(1000),
            }],
        );
        s.model.add_state_machine(class, sm);
        (class, pin)
    };
    let (hi_class, hi_in) = worker(&mut s, "Hi");
    let (lo_class, lo_in) = worker(&mut s, "Lo");

    // The generator: environment process, two output ports.
    let gen_class = s.model.add_class("Gen");
    s.apply(gen_class, |t| t.application_component).unwrap();
    let out_hi = s.model.add_port(gen_class, "outHi");
    let out_lo = s.model.add_port(gen_class, "outLo");
    s.model.port_mut(out_hi).add_required(job);
    s.model.port_mut(out_lo).add_required(job);
    let mut sm = StateMachine::new("GenB");
    let run = sm.add_state_with_entry(
        "Run",
        vec![Statement::SetTimer {
            name: "tick".into(),
            duration: Expr::int(80_000),
        }],
    );
    sm.set_initial(run);
    sm.add_transition(
        run,
        run,
        Trigger::Timer("tick".into()),
        None,
        vec![
            Statement::Send {
                port: "outHi".into(),
                signal: job,
                args: vec![],
            },
            Statement::Send {
                port: "outLo".into(),
                signal: job,
                args: vec![],
            },
            Statement::SetTimer {
                name: "tick".into(),
                duration: Expr::int(80_000),
            },
        ],
    );
    s.model.add_state_machine(gen_class, sm);

    let hi = s.model.add_part(top, "hi", hi_class);
    let lo = s.model.add_part(top, "lo", lo_class);
    let gen = s.model.add_part(top, "gen", gen_class);
    s.apply_with(
        hi,
        |t| t.application_process,
        [("Priority", TagValue::Int(10))],
    )
    .unwrap();
    s.apply_with(
        lo,
        |t| t.application_process,
        [("Priority", TagValue::Int(1))],
    )
    .unwrap();
    s.apply(gen, |t| t.application_process).unwrap();
    use tut_uml::model::ConnectorEnd;
    s.model.add_connector(
        top,
        "wHi",
        ConnectorEnd {
            part: Some(gen),
            port: out_hi,
        },
        ConnectorEnd {
            part: Some(hi),
            port: hi_in,
        },
    );
    s.model.add_connector(
        top,
        "wLo",
        ConnectorEnd {
            part: Some(gen),
            port: out_lo,
        },
        ConnectorEnd {
            part: Some(lo),
            port: lo_in,
        },
    );

    let group = s.add_process_group("all", false, ProcessType::General);
    s.assign_to_group(hi, group);
    s.assign_to_group(lo, group);
    // gen stays ungrouped: environment, zero cycles, never contends.
    let platform = s.model.add_class("Plat");
    s.apply(platform, |t| t.platform).unwrap();
    let cpu_class = s.add_platform_component("Cpu", ComponentKind::General, 20, 1.0, 0.1);
    let cpu = s.add_platform_instance(platform, "cpu", cpu_class, 1, 0);
    s.map_group(group, cpu, false);
    s
}

fn run() -> tut_sim::SimReport {
    Simulation::from_system(&contended_system(), SimConfig::with_horizon_ns(20_000_000))
        .expect("build")
        .run()
        .expect("run")
}

/// Mean queueing delay per step in nanoseconds.
fn mean_wait_ns(stats: &ProcessStats) -> f64 {
    stats.queue_wait_ns as f64 / stats.steps.max(1) as f64
}

#[test]
fn priority_policy_favours_the_high_priority_process() {
    let report = run();
    let hi = report.process("hi").unwrap();
    let lo = report.process("lo").unwrap();
    // The overload lands entirely on the low-priority process: hi keeps
    // its response time bounded and serves every job, lo falls behind.
    assert!(
        mean_wait_ns(hi) < mean_wait_ns(lo),
        "hi waits {} ns, lo waits {} ns",
        mean_wait_ns(hi),
        mean_wait_ns(lo)
    );
    assert!(
        hi.steps > lo.steps,
        "hi must out-serve lo under priority: {} vs {}",
        hi.steps,
        lo.steps
    );
}

#[test]
fn worst_case_wait_is_reported() {
    let report = run();
    let lo = report.process("lo").unwrap();
    assert!(lo.max_queue_wait_ns >= mean_wait_ns(lo) as u64);
    assert!(
        lo.max_queue_wait_ns > 0,
        "contention must show up in the worst case"
    );
}
