//! The discrete-event simulation engine.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use tut_faults::{FaultModel, NoFaults, TransferVerdict};
use tut_hibi::topology::{
    Arbitration as HibiArbitration, BridgeConfig, NetworkBuilder, SegmentConfig, WrapperConfig,
};
use tut_hibi::{AgentId, Network};
use tut_platform::{PeDescriptor, PeKind};
use tut_profile::platform::{Arbitration, ComponentKind};
use tut_profile::SystemModel;
use tut_trace::perf::{self, Prof};
use tut_trace::{Clock, NoopSink, TraceSink};
use tut_uml::ids::{PropertyId, SignalId, StateId, StateMachineId};
use tut_uml::instances::{InstanceIndex, InstanceTree, RoutingTable};
use tut_uml::lower::{Emit, Input, MachineCode};
use tut_uml::Value;

use crate::config::SimConfig;
use crate::error::SimError;
use crate::intern::Sym;
use crate::log::SimLog;
use crate::queue::EventQueue;
use crate::report::{FaultTally, PeStats, ProcessStats, SimReport};

/// Delivery latency for signals between processes on the same
/// processing element (local queue push), nanoseconds.
const LOCAL_LATENCY_NS: u64 = 20;
/// Delivery latency for signals crossing the environment boundary
/// (traffic sources, radio channel), nanoseconds.
const ENV_LATENCY_NS: u64 = 1_000;
/// Protocol header bytes added to every signal payload on the bus.
const HEADER_BYTES: u64 = 8;
/// Sender-side copy cost: one `mem` workload unit per this many payload
/// bytes.
const BYTES_PER_MEM_UNIT: u64 = 4;

/// Index of a processing element inside a [`Simulation`].
type PeIndex = usize;
/// Index of a process inside a [`Simulation`].
type ProcIndex = usize;

#[derive(Debug)]
enum QueueEntry {
    /// Pseudo-entry that runs the initial step (entry actions of the
    /// initial state and completion transitions).
    Start,
    Signal {
        signal: SignalId,
        values: Vec<Value>,
    },
    Timer {
        /// Index into the machine's timer table
        /// ([`MachineCode::timers`]).
        slot: u32,
    },
}

/// Per-class runtime image of a state machine, built once in
/// [`Simulation::from_system`] and shared (via `Arc`) by every process
/// instance of the class: the machine lowered to slots
/// ([`MachineCode`]) plus the log symbols of its states, timers and
/// counters. Holding the machine in this form is what lets the per-step
/// hot path run without resolving a name or touching a hash map.
#[derive(Debug)]
struct MachineRt {
    code: MachineCode,
    /// Interned state names, indexed by `StateId::index()`.
    state_syms: Vec<Sym>,
    /// Interned `timer:<name>` trigger labels, by timer slot.
    timer_labels: Vec<Sym>,
    /// Interned counter names, by the code's counter index.
    counter_syms: Vec<Sym>,
}

/// How a delivery from one process reaches another, fixed by the
/// mapping: both on one element, through the environment, or across
/// HIBI between two agents.
#[derive(Clone, Copy, Debug)]
enum Route {
    /// Same element, or an element without a HIBI agent: the local
    /// latency.
    Local,
    /// Either end on the environment element: the environment latency.
    Env,
    /// A HIBI transfer between two agents.
    Bus { from: AgentId, to: AgentId },
}

/// One receiver of a send site.
#[derive(Clone, Copy, Debug)]
struct Receiver {
    target: ProcIndex,
    route: Route,
}

/// A send site of one process (a `(port, signal)` pair of its machine's
/// [`MachineCode::sends`]) resolved at build time to its receivers.
#[derive(Debug)]
struct SendRt {
    signal: SignalId,
    receivers: Box<[Receiver]>,
    /// The port's interned name when nothing is connected to it (the
    /// send is logged `LOST`).
    lost: Option<Sym>,
}

#[derive(Debug)]
struct ProcessRt {
    /// Dotted display name (log identity).
    name: String,
    /// Interned `name`, stamped on every record this process emits.
    name_sym: Sym,
    /// Shared per-class machine image (see [`MachineRt`]).
    machine: Arc<MachineRt>,
    state: StateId,
    /// Variable slots of the machine's code; `None` until first written.
    vars: Vec<Option<Value>>,
    /// Send sites by the code's site index.
    sends: Box<[SendRt]>,
    /// Pending inputs with their enqueue timestamps (for response-time
    /// accounting).
    queue: VecDeque<(u64, QueueEntry)>,
    pe: PeIndex,
    priority: i64,
    /// Monotonic generation per timer slot; a fired event with a stale
    /// generation was cancelled or re-armed.
    timer_gens: Vec<u64>,
    /// Per-process decision counter salting the fault model's keyed
    /// draws: `(process, nonce)` pairs are unique and advance in the
    /// process's deterministic step order.
    fault_nonce: u64,
    stats: ProcessStats,
}

#[derive(Debug)]
struct PeRt {
    descriptor: PeDescriptor,
    /// HIBI agent of this element, if attached to the network.
    agent: Option<AgentId>,
    /// The process that ran last (for context-switch accounting).
    last_process: Option<ProcIndex>,
    /// Round-robin pointer for the RoundRobin policy.
    rr_next: ProcIndex,
    free_at_ns: u64,
    busy_ns: u64,
    busy_cycles: u64,
    is_env: bool,
}

#[derive(Debug)]
enum EventKind {
    Deliver {
        target: ProcIndex,
        entry_kind: DeliverKind,
    },
    TimerFired {
        target: ProcIndex,
        /// Index into the target machine's timer table.
        slot: u32,
        generation: u64,
    },
    /// The processing element finished a step; dispatch the next ready
    /// process.
    PeFree { pe: PeIndex },
}

#[derive(Debug)]
enum DeliverKind {
    Start,
    Signal {
        signal: SignalId,
        values: Vec<Value>,
        /// Sending process; its name is resolved when the delivery is
        /// logged.
        sender: ProcIndex,
        bytes: u64,
        sent_at_ns: u64,
    },
}

/// A runnable co-simulation built from a [`SystemModel`].
pub struct Simulation {
    config: SimConfig,
    processes: Vec<ProcessRt>,
    pes: Vec<PeRt>,
    /// Processes mapped to each element, ascending process-index order
    /// (the scheduler's scan set — no per-dispatch allocation).
    pe_procs: Vec<Vec<ProcIndex>>,
    network: Network,
    events: EventQueue<EventKind>,
    next_seq: u64,
    now_ns: u64,
    steps: u64,
    log: SimLog,
    /// Interned signal names, indexed by `SignalId::index()`.
    signal_syms: Vec<Sym>,
    /// Interned `start` trigger label.
    start_sym: Sym,
    /// Interned `drop` (trigger label of discarded inputs and fault
    /// kind of dropped transfers).
    drop_sym: Sym,
    /// Interned `corrupt` fault kind.
    corrupt_sym: Sym,
    /// Interned `unroutable` fault kind.
    unroutable_sym: Sym,
    /// Recycled effect buffer, empty between steps.
    scratch_effects: Vec<Emit>,
    /// Injected-fault totals (corruptions/drops; unroutable transfers
    /// are tallied by the network itself).
    fault_tally: FaultTally,
    /// Last simulated time a run-to-completion step executed on a
    /// non-environment element (the watchdog's quiescence reference).
    last_useful_ns: u64,
    /// Host self-profiler labels, one per process (`proc/<name>`), filled
    /// in the run prologue only when profiling is active so the hot path
    /// moves `Copy` ids. Empty in unprofiled runs.
    proc_perf: Vec<perf::Label>,
}

/// Runs the simulation-setup lowering as a dry run and returns the
/// diagnostic it would report, if any: errors with a stable code
/// (today only `E0410` parameter-range findings) become element-
/// attributed diagnostics, everything else is a structural condition
/// the model rules already cover and is suppressed. The caller attaches
/// document spans through its `SpanIndex`; both the cold `repro check`
/// pipeline and the incremental query engine share this function so
/// their findings are byte-identical.
pub fn setup_diagnostic(system: &SystemModel, config: SimConfig) -> Option<tut_diag::Diagnostic> {
    match Simulation::from_system(system, config) {
        Ok(_) => None,
        Err(e) => e.code().map(|code| {
            let mut d = tut_diag::Diagnostic::error(code, e.to_string());
            if let Some(element) = e.element() {
                d = d.with_element(element);
            }
            d
        }),
    }
}

impl Simulation {
    /// Builds a simulation from a validated system model.
    ///
    /// # Errors
    ///
    /// * [`SimError::NoApplication`] when no class carries
    ///   `«Application»`.
    /// * [`SimError::MissingBehaviour`] when an instantiated functional
    ///   component has no state machine.
    /// * [`SimError::BadModel`] / [`SimError::Network`] for structural
    ///   problems.
    pub fn from_system(system: &SystemModel, config: SimConfig) -> Result<Simulation, SimError> {
        let app = system.application();
        let top = app.top().ok_or(SimError::NoApplication)?;
        let tree = InstanceTree::build(&system.model, top)
            .map_err(|e| SimError::BadModel(e.to_string()))?;
        let routing = RoutingTable::build(&system.model, &tree);

        // ---- Platform: processing elements + HIBI network --------------
        let platform = system.platform();
        let mut pes: Vec<PeRt> = Vec::new();
        // PE 0 is the environment element: infinitely fast, not on the bus.
        pes.push(PeRt {
            descriptor: PeDescriptor::new("environment", PeKind::GeneralCpu, 1_000_000),
            agent: None,
            last_process: None,
            rr_next: 0,
            free_at_ns: 0,
            busy_ns: 0,
            busy_cycles: 0,
            is_env: true,
        });

        let mut builder = NetworkBuilder::new();
        let mut segment_ids = HashMap::new();
        for segment in platform.segments() {
            let id = builder.add_segment(
                segment.name.clone(),
                SegmentConfig {
                    data_width_bits: param_u32(
                        segment.part,
                        &segment.name,
                        "DataWidth",
                        segment.data_width,
                    )?,
                    frequency_mhz: param_u32(
                        segment.part,
                        &segment.name,
                        "Frequency",
                        segment.frequency,
                    )?,
                    arbitration: match segment.arbitration {
                        Arbitration::Priority => HibiArbitration::Priority,
                        Arbitration::RoundRobin => HibiArbitration::RoundRobin,
                        Arbitration::Tdma => HibiArbitration::Tdma,
                    },
                    tdma_slots: param_u32(
                        segment.part,
                        &segment.name,
                        "TdmaSlots",
                        segment.tdma_slots,
                    )?,
                },
            );
            segment_ids.insert(segment.part, id);
        }
        let attachments = platform.attachments();
        let mut pe_index_by_part: HashMap<PropertyId, PeIndex> = HashMap::new();
        let mut next_auto_address = 0x1000u64;
        for info in platform.instances() {
            let kind = match info.kind {
                ComponentKind::General => PeKind::GeneralCpu,
                ComponentKind::Dsp => PeKind::DspCpu,
                ComponentKind::HwAccelerator => PeKind::HwAccelerator,
            };
            let mut descriptor = PeDescriptor::new(
                info.name.clone(),
                kind,
                param_u32(info.part, &info.name, "Frequency", info.frequency)?,
            );
            descriptor.int_memory_bytes = info.int_memory.max(0) as u64;
            descriptor.priority = info.priority;
            descriptor.area = info.area.unwrap_or(1.0);
            descriptor.power = info.power.unwrap_or(0.1);
            let mut agent = None;
            if let Some(a) = attachments.iter().find(|a| a.pe == info.part) {
                if let Some(&segment) = segment_ids.get(&a.segment) {
                    let address = match a.wrapper.address {
                        Some(x) => param_u64(a.wrapper.part, &a.wrapper.name, "Address", x)?,
                        None => {
                            next_auto_address += 1;
                            next_auto_address
                        }
                    };
                    agent = Some(
                        builder.add_agent(
                            segment,
                            WrapperConfig {
                                address,
                                buffer_size: param_u32(
                                    a.wrapper.part,
                                    &a.wrapper.name,
                                    "BufferSize",
                                    a.wrapper.buffer_size,
                                )?,
                                max_time: param_u32(
                                    a.wrapper.part,
                                    &a.wrapper.name,
                                    "MaxTime",
                                    a.wrapper.max_time,
                                )?
                                .max(1),
                            },
                        ),
                    );
                }
            }
            pe_index_by_part.insert(info.part, pes.len());
            pes.push(PeRt {
                descriptor,
                agent,
                last_process: None,
                rr_next: 0,
                free_at_ns: 0,
                busy_ns: 0,
                busy_cycles: 0,
                is_env: false,
            });
        }
        for bridge in platform.bridges() {
            if let (Some(&a), Some(&b)) = (segment_ids.get(&bridge.a), segment_ids.get(&bridge.b)) {
                builder.add_bridge(a, b, BridgeConfig::default());
            }
        }
        let network = builder.build()?;

        // ---- Processes --------------------------------------------------
        // The per-simulation symbol table: every name the hot path will
        // log is interned here, at build time.
        let mut log = SimLog::new();
        let signal_syms: Vec<Sym> = system
            .model
            .signals()
            .map(|(_, signal)| log.intern(signal.name()))
            .collect();
        let start_sym = log.intern("start");
        let drop_sym = log.intern("drop");
        let corrupt_sym = log.intern("corrupt");
        let unroutable_sym = log.intern("unroutable");

        let mapping = system.mapping();
        let mut processes: Vec<ProcessRt> = Vec::new();
        let mut instances: Vec<InstanceIndex> = Vec::new();
        // Instance index -> process index (`None` for inactive instances).
        let mut proc_of_instance: Vec<Option<ProcIndex>> = vec![None; tree.nodes().len()];
        let mut machines: HashMap<StateMachineId, Arc<MachineRt>> = HashMap::new();
        for instance in tree.active_instances(&system.model) {
            let node = tree.node(instance);
            let class = node.class;
            let sm =
                system
                    .model
                    .class(class)
                    .behavior()
                    .ok_or_else(|| SimError::MissingBehaviour {
                        class: system.model.class(class).name().to_owned(),
                    })?;
            let machine = system.model.state_machine(sm);
            let machine_rt = match machines.get(&sm) {
                Some(rt) => Arc::clone(rt),
                None => {
                    // Lowered once per class; every step runs this code.
                    let code = MachineCode::lower(&system.model, machine);
                    let state_syms = machine
                        .states()
                        .map(|(_, state)| log.intern(state.name()))
                        .collect();
                    let timer_labels = code
                        .timers()
                        .iter()
                        .map(|name| log.intern(&format!("timer:{name}")))
                        .collect();
                    let counter_syms = code.counters().iter().map(|c| log.intern(c)).collect();
                    let rt = Arc::new(MachineRt {
                        code,
                        state_syms,
                        timer_labels,
                        counter_syms,
                    });
                    machines.insert(sm, Arc::clone(&rt));
                    rt
                }
            };
            let initial = machine.initial().ok_or_else(|| {
                SimError::BadModel(format!(
                    "state machine `{}` has no initial state",
                    machine.name()
                ))
            })?;
            let part = node.path.last().copied();
            let (pe, priority) = match part {
                Some(part) => {
                    let info = app.process(part);
                    let pe = mapping
                        .instance_of_process(part)
                        .and_then(|platform_part| pe_index_by_part.get(&platform_part).copied())
                        .unwrap_or(0);
                    (pe, info.as_ref().map(|i| i.priority).unwrap_or(0))
                }
                None => (0, 0),
            };
            let name = tree.display_name(&system.model, instance);
            let name_sym = log.intern(&name);
            proc_of_instance[instance] = Some(processes.len());
            instances.push(instance);
            processes.push(ProcessRt {
                name,
                name_sym,
                vars: machine_rt.code.initial_vars(),
                sends: Box::default(),
                timer_gens: vec![0; machine_rt.code.timers().len()],
                machine: machine_rt,
                state: initial,
                queue: VecDeque::new(),
                pe,
                priority,
                fault_nonce: 0,
                stats: ProcessStats::default(),
            });
        }
        if processes.is_empty() {
            return Err(SimError::BadModel(
                "application has no active process instances".into(),
            ));
        }
        // Resolve every process's send sites to receivers and routes.
        for (index, &instance) in instances.iter().enumerate() {
            let class = tree.node(instance).class;
            let sender_pe = processes[index].pe;
            let machine = Arc::clone(&processes[index].machine);
            let sends = machine
                .code
                .sends()
                .iter()
                .map(|(port_name, signal)| {
                    let endpoints = system
                        .model
                        .find_port(class, port_name)
                        .map_or(&[][..], |port| routing.receivers(instance, port, *signal));
                    let receivers = endpoints
                        .iter()
                        .map(|endpoint| {
                            let target = proc_of_instance[endpoint.instance]
                                .expect("routing endpoints are active instances");
                            Receiver {
                                target,
                                route: route(&pes, sender_pe, processes[target].pe),
                            }
                        })
                        .collect();
                    SendRt {
                        signal: *signal,
                        receivers,
                        lost: endpoints.is_empty().then(|| log.intern(port_name)),
                    }
                })
                .collect();
            processes[index].sends = sends;
        }
        let mut pe_procs: Vec<Vec<ProcIndex>> = vec![Vec::new(); pes.len()];
        for (index, process) in processes.iter().enumerate() {
            pe_procs[process.pe].push(index);
        }

        let mut sim = Simulation {
            config,
            processes,
            pes,
            pe_procs,
            network,
            events: EventQueue::new(),
            next_seq: 0,
            now_ns: 0,
            steps: 0,
            log,
            signal_syms,
            start_sym,
            drop_sym,
            corrupt_sym,
            unroutable_sym,
            scratch_effects: Vec::new(),
            fault_tally: FaultTally::default(),
            last_useful_ns: 0,
            proc_perf: Vec::new(),
        };
        // Every process performs its Start step at t=0.
        for index in 0..sim.processes.len() {
            sim.processes[index].queue.push_back((0, QueueEntry::Start));
            sim.schedule(
                0,
                EventKind::Deliver {
                    target: index,
                    entry_kind: DeliverKind::Start,
                },
            );
        }
        Ok(sim)
    }

    fn schedule(&mut self, time_ns: u64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(time_ns, seq, kind);
    }

    /// The next fault-decision salt for `proc_index`: unique per
    /// decision, advancing in the process's deterministic step order.
    fn next_fault_salt(&mut self, proc_index: ProcIndex) -> u64 {
        let nonce = &mut self.processes[proc_index].fault_nonce;
        let salt = ((proc_index as u64) << 40) ^ *nonce;
        *nonce += 1;
        salt
    }

    /// Runs to completion (event queue drained, time horizon passed, or
    /// step bound hit) and returns the report.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Runtime`] when an action-language error occurs
    /// inside a process step.
    pub fn run(self) -> Result<SimReport, SimError> {
        // `NoFaults` and `NoopSink` short-circuit every hook, so this
        // monomorphises to the fault-free, untraced engine.
        self.run_with_faults(&mut NoFaults, &mut NoopSink)
    }

    /// [`Simulation::run`] with deterministic fault injection and
    /// tracing. The [`FaultModel`] decides, in event order, whether each
    /// HIBI-borne signal is delivered intact, corrupted, or dropped,
    /// whether timers jitter, and whether a processing element is inside
    /// an outage window.
    ///
    /// With an inactive model (e.g. [`NoFaults`] or a zero-rate
    /// [`tut_faults::FaultPlan`]) every hook short-circuits without
    /// drawing randomness, so the log and report are byte-identical to
    /// [`Simulation::run`].
    ///
    /// The tracer turns run-to-completion steps into spans on
    /// per-element `pe/<name>` tracks and bus reservations into spans on
    /// per-segment `hibi/<name>` tracks; signal latencies feed the
    /// `sim.signal_latency_ns` histogram, and the event-queue depth is
    /// sampled on the `sim/events` track. Tracing is observation only:
    /// with [`NoopSink`] or any other sink the report and log are
    /// byte-identical.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Runtime`] when an action-language error occurs
    /// inside a process step, and [`SimError::WatchdogExpired`] when an
    /// armed [`crate::config::Watchdog`] limit fires.
    pub fn run_with_faults<F: FaultModel, T: TraceSink>(
        self,
        faults: &mut F,
        tracer: &mut T,
    ) -> Result<SimReport, SimError> {
        // `NoProf` statically removes every self-profiling site.
        self.run_with_faults_prof(faults, tracer, perf::NoProf)
    }

    /// [`Simulation::run_with_faults`] plus host self-profiling: each
    /// run-to-completion step is attributed to its process
    /// (`proc/<name>` frames) nested under the event kind that triggered
    /// it (`sim.event.deliver` / `sim.event.timer` / `sim.event.pe_free`),
    /// all under one `sim.run` frame — drain with
    /// [`tut_trace::perf::drain`].
    ///
    /// Host-time observation never perturbs simulated behaviour: a
    /// profiled run's log and report are byte-identical to an unprofiled
    /// run (pinned by `tests/profiler.rs`). With [`perf::NoProf`] the
    /// instrumentation compiles away entirely.
    ///
    /// # Errors
    ///
    /// Same contract as [`Simulation::run_with_faults`].
    pub fn run_with_faults_prof<F: FaultModel, T: TraceSink, P: Prof>(
        mut self,
        faults: &mut F,
        tracer: &mut T,
        prof: P,
    ) -> Result<SimReport, SimError> {
        // Self-profiling prologue: resolve per-process and per-event-kind
        // labels once so the hot loop moves only `Copy` ids.
        let kind_labels = if P::ACTIVE && prof.enabled() {
            for index in 0..self.processes.len() {
                let name = format!("proc/{}", self.processes[index].name);
                self.proc_perf.push(perf::label(&name));
            }
            Some([
                perf::label("sim.event.deliver"),
                perf::label("sim.event.timer"),
                perf::label("sim.event.pe_free"),
            ])
        } else {
            None
        };
        let _run_span = prof.enter_named("sim.run");
        let queue_track = tracer.track("sim/events", Clock::Sim);
        let watchdog = self.config.watchdog;
        let mut events_popped: u64 = 0;
        while let Some((time_ns, _seq, kind)) = self.events.pop() {
            if time_ns > self.config.max_time_ns || self.steps >= self.config.max_steps {
                break;
            }
            events_popped += 1;
            if watchdog.max_events > 0 && events_popped > watchdog.max_events {
                return Err(self.watchdog_expired(time_ns, events_popped, "event-budget"));
            }
            if watchdog.quiescence_ns > 0
                && time_ns.saturating_sub(self.last_useful_ns) > watchdog.quiescence_ns
            {
                return Err(self.watchdog_expired(time_ns, events_popped, "quiescence"));
            }
            self.now_ns = time_ns;
            if tracer.enabled() {
                let depth = self.events.len() as f64;
                tracer.counter(queue_track, "queue_depth", self.now_ns, depth);
                tracer.gauge("sim.event_queue_depth", depth);
            }
            self.handle_event(kind, faults, tracer, prof, kind_labels)?;
        }
        tracer.add("sim.steps", self.steps);
        Ok(self.into_report())
    }

    /// Processes one popped event at `self.now_ns`.
    fn handle_event<F: FaultModel, T: TraceSink, P: Prof>(
        &mut self,
        kind: EventKind,
        faults: &mut F,
        tracer: &mut T,
        prof: P,
        kind_labels: Option<[perf::Label; 3]>,
    ) -> Result<(), SimError> {
        match kind {
            EventKind::Deliver { target, entry_kind } => {
                let _kind_span = kind_labels.map(|l| prof.enter(l[0]));
                match entry_kind {
                    DeliverKind::Start => {
                        // Start entries were enqueued at construction.
                    }
                    DeliverKind::Signal {
                        signal,
                        values,
                        sender,
                        bytes,
                        sent_at_ns,
                    } => {
                        let latency_ns = self.now_ns.saturating_sub(sent_at_ns);
                        tracer.observe("sim.signal_latency_ns", latency_ns);
                        tracer.add("sim.signals_delivered", 1);
                        let sender_sym = self.processes[sender].name_sym;
                        let receiver_sym = self.processes[target].name_sym;
                        let signal_sym = self.signal_syms[signal.index()];
                        let now = self.now_ns;
                        self.log.push_sig(
                            now,
                            sender_sym,
                            receiver_sym,
                            signal_sym,
                            bytes,
                            latency_ns,
                        );
                        self.processes[target].stats.signals_received += 1;
                        self.processes[target]
                            .queue
                            .push_back((now, QueueEntry::Signal { signal, values }));
                    }
                }
                let pe = self.processes[target].pe;
                self.try_dispatch(pe, faults, tracer, prof)?;
            }
            EventKind::TimerFired {
                target,
                slot,
                generation,
            } => {
                let _kind_span = kind_labels.map(|l| prof.enter(l[1]));
                let current = self.processes[target].timer_gens[slot as usize];
                if current == generation {
                    let now = self.now_ns;
                    self.processes[target]
                        .queue
                        .push_back((now, QueueEntry::Timer { slot }));
                    let pe = self.processes[target].pe;
                    self.try_dispatch(pe, faults, tracer, prof)?;
                }
            }
            EventKind::PeFree { pe } => {
                let _kind_span = kind_labels.map(|l| prof.enter(l[2]));
                self.try_dispatch(pe, faults, tracer, prof)?;
            }
        }
        Ok(())
    }

    /// Runs one step on `pe` if it is free, not in an outage window, and
    /// a process is ready.
    fn try_dispatch<F: FaultModel, T: TraceSink, P: Prof>(
        &mut self,
        pe: PeIndex,
        faults: &mut F,
        tracer: &mut T,
        prof: P,
    ) -> Result<(), SimError> {
        if self.pes[pe].free_at_ns > self.now_ns {
            return Ok(());
        }
        if faults.is_active() && !self.pes[pe].is_env {
            if let Some(until_ns) = faults.outage_until(&self.pes[pe].descriptor.name, self.now_ns)
            {
                // Stalled element: park the dispatch. A finite outage
                // retries when it lifts; a permanent one never runs again
                // (the watchdog turns that into an error).
                if until_ns != u64::MAX && until_ns > self.now_ns {
                    self.schedule(until_ns, EventKind::PeFree { pe });
                }
                return Ok(());
            }
        }
        // Scan only this element's (static, ascending) process list.
        let chosen = match self.config.scheduler.policy {
            // Highest priority first; ties broken by lowest process
            // index for determinism (strict-max scan over an ascending
            // list).
            crate::config::SchedPolicy::Priority => {
                let mut best: Option<ProcIndex> = None;
                for &index in &self.pe_procs[pe] {
                    if self.processes[index].queue.is_empty() {
                        continue;
                    }
                    match best {
                        Some(b) if self.processes[index].priority <= self.processes[b].priority => {
                        }
                        _ => best = Some(index),
                    }
                }
                best
            }
            // Fair rotation: first ready process at or after the
            // rotating pointer, wrapping to the first ready.
            crate::config::SchedPolicy::RoundRobin => {
                let start = self.pes[pe].rr_next;
                let mut first: Option<ProcIndex> = None;
                let mut at_or_after: Option<ProcIndex> = None;
                for &index in &self.pe_procs[pe] {
                    if self.processes[index].queue.is_empty() {
                        continue;
                    }
                    if first.is_none() {
                        first = Some(index);
                    }
                    if at_or_after.is_none() && index >= start {
                        at_or_after = Some(index);
                        break;
                    }
                }
                at_or_after.or(first)
            }
        };
        let Some(proc_index) = chosen else {
            return Ok(());
        };
        if matches!(
            self.config.scheduler.policy,
            crate::config::SchedPolicy::RoundRobin
        ) {
            self.pes[pe].rr_next = proc_index + 1;
        }
        self.execute_step(proc_index, faults, tracer, prof)?;
        Ok(())
    }

    /// Executes one run-to-completion step of `proc_index` at `now_ns`.
    fn execute_step<F: FaultModel, T: TraceSink, P: Prof>(
        &mut self,
        proc_index: ProcIndex,
        faults: &mut F,
        tracer: &mut T,
        prof: P,
    ) -> Result<(), SimError> {
        // Per-process host self-time: the whole step (action execution,
        // cost accounting, effect dispatch) charges to `proc/<name>`.
        let _proc_span = if P::ACTIVE {
            self.proc_perf.get(proc_index).map(|&l| prof.enter(l))
        } else {
            None
        };
        self.steps += 1;
        let (enqueued_ns, entry) = self.processes[proc_index]
            .queue
            .pop_front()
            .expect("dispatch only picks non-empty queues");
        let pe_index = self.processes[proc_index].pe;
        let start_ns = self.now_ns;
        // Response-time accounting: delivery -> dispatch.
        let waited = start_ns.saturating_sub(enqueued_ns);
        {
            let stats = &mut self.processes[proc_index].stats;
            stats.queue_wait_ns += waited;
            stats.max_queue_wait_ns = stats.max_queue_wait_ns.max(waited);
        }

        // Shared per-class machine image: an `Arc` bump instead of the
        // per-step deep clone of the whole state machine this replaced.
        let machine_rt = Arc::clone(&self.processes[proc_index].machine);
        let code = &machine_rt.code;
        let name_sym = self.processes[proc_index].name_sym;
        let from_state = self.processes[proc_index].state;

        // The process's variable slots move into the step's frame (and
        // back out below).
        let mut vars = std::mem::take(&mut self.processes[proc_index].vars);
        let mut frame = code.frame(&mut vars);
        let mut effects = std::mem::take(&mut self.scratch_effects);
        let mut weight: u64 = 0;
        let mut to_state = from_state;
        let mut fired = false;

        let (trigger_sym, input) = match entry {
            QueueEntry::Start => {
                fired = true;
                code.entry(from_state)
                    .run(&mut frame, &mut effects, &mut weight)
                    .map_err(|e| self.runtime_error(proc_index, e))?;
                (self.start_sym, None)
            }
            QueueEntry::Signal { signal, values } => {
                // The delivered payload is the parameter frame; it stays
                // bound through the target state's entry actions.
                frame.bind(values, code.params(signal));
                (
                    self.signal_syms[signal.index()],
                    Some(Input::Signal(signal)),
                )
            }
            QueueEntry::Timer { slot } => (
                machine_rt.timer_labels[slot as usize],
                Some(Input::Timer(slot)),
            ),
        };
        if let Some(t) = input.and_then(|input| code.fire(from_state, input, &frame)) {
            fired = true;
            t.actions()
                .run(&mut frame, &mut effects, &mut weight)
                .map_err(|e| self.runtime_error(proc_index, e))?;
            to_state = t.target();
            if to_state != from_state {
                code.entry(to_state)
                    .run(&mut frame, &mut effects, &mut weight)
                    .map_err(|e| self.runtime_error(proc_index, e))?;
            }
        }
        frame.unbind();

        if !fired {
            // Discarded input: log and charge only the dispatch
            // overhead. The trigger symbol doubles as the dropped-input
            // identity (signal name, `timer:<name>`, or `start`).
            self.log.push_drop(start_ns, name_sym, trigger_sym);
            self.processes[proc_index].stats.drops += 1;
            let from_sym = machine_rt.state_syms[from_state.index()];
            let drop_sym = self.drop_sym;
            self.finish_step(
                proc_index, pe_index, start_ns, 0, from_sym, from_sym, drop_sym, tracer,
            );
            // Nothing fired, so the moved-out scratch goes straight back.
            self.processes[proc_index].vars = vars;
            self.scratch_effects = effects;
            return Ok(());
        }

        // Completion transitions fire within the same step, with no
        // parameters bound, bounded to avoid livelock on a mis-modelled
        // machine.
        for _ in 0..64 {
            let Some(t) = code.fire(to_state, Input::Completion, &frame) else {
                break;
            };
            t.actions()
                .run(&mut frame, &mut effects, &mut weight)
                .map_err(|e| self.runtime_error(proc_index, e))?;
            let next = t.target();
            if next != to_state {
                code.entry(next)
                    .run(&mut frame, &mut effects, &mut weight)
                    .map_err(|e| self.runtime_error(proc_index, e))?;
                to_state = next;
            } else {
                to_state = next;
                break;
            }
        }

        // ---- Cost accounting -------------------------------------------
        let pe_kind = self.pes[pe_index].descriptor.kind;
        let cost_model = &self.config.cost_model;
        let mut cycles =
            cost_model.step_overhead_cycles(pe_kind) + cost_model.weight_cycles(pe_kind, weight);
        let mut send_bytes_total = 0u64;
        for effect in &effects {
            match effect {
                Emit::Compute { class, units } => {
                    cycles += cost_model.compute_cycles(pe_kind, *class, *units);
                }
                Emit::Send { values, .. } => {
                    send_bytes_total += self.payload_bytes(values);
                }
                _ => {}
            }
        }
        let mem_units = send_bytes_total / BYTES_PER_MEM_UNIT;
        cycles += cost_model.compute_cycles(pe_kind, tut_uml::action::CostClass::Mem, mem_units);
        // RTOS context switch: charged when the element switches to a
        // different process than the one that ran last.
        if self.pes[pe_index].last_process != Some(proc_index) {
            if self.pes[pe_index].last_process.is_some() {
                cycles += self.config.scheduler.context_switch_cycles;
            }
            self.pes[pe_index].last_process = Some(proc_index);
        }
        if self.pes[pe_index].is_env {
            cycles = 0;
        }
        let duration_ns = self.pes[pe_index].descriptor.ns_for_cycles(cycles);
        let end_ns = start_ns + duration_ns;

        // Persist process state.
        self.processes[proc_index].vars = vars;
        self.processes[proc_index].state = to_state;

        // ---- Effects ---------------------------------------------------
        // The send sites move out for the loop so deliveries can borrow
        // them while mutating `self`.
        let sends = std::mem::take(&mut self.processes[proc_index].sends);
        for effect in effects.drain(..) {
            match effect {
                Emit::Send { site, values } => {
                    let send = &sends[site as usize];
                    self.dispatch_send(proc_index, send, values, end_ns, faults, tracer);
                }
                Emit::SetTimer { timer, duration } => {
                    let generation = {
                        let g = &mut self.processes[proc_index].timer_gens[timer as usize];
                        *g += 1;
                        *g
                    };
                    let duration = if faults.is_active() {
                        let salt = self.next_fault_salt(proc_index);
                        duration + faults.timer_jitter_ns(start_ns, duration, salt)
                    } else {
                        duration
                    };
                    self.schedule(
                        end_ns + duration,
                        EventKind::TimerFired {
                            target: proc_index,
                            slot: timer,
                            generation,
                        },
                    );
                }
                Emit::CancelTimer { timer } => {
                    self.processes[proc_index].timer_gens[timer as usize] += 1;
                }
                Emit::Log(message) => {
                    self.log.push_user(end_ns, name_sym, &message);
                }
                Emit::Count { counter, amount } => {
                    let counter = machine_rt.counter_syms[counter as usize];
                    self.log.push_count(end_ns, name_sym, counter, amount);
                }
                Emit::Compute { .. } => {}
            }
        }
        self.processes[proc_index].sends = sends;

        // Hand the drained effect buffer back for reuse.
        self.scratch_effects = effects;
        let from_sym = machine_rt.state_syms[from_state.index()];
        let to_sym = machine_rt.state_syms[to_state.index()];
        self.finish_step(
            proc_index,
            pe_index,
            start_ns,
            cycles,
            from_sym,
            to_sym,
            trigger_sym,
            tracer,
        );
        Ok(())
    }

    /// Size of a sent payload on the wire: header plus every value.
    fn payload_bytes(&self, values: &[Value]) -> u64 {
        HEADER_BYTES + values.iter().map(|v| v.size_bytes() as u64).sum::<u64>()
    }

    #[allow(clippy::too_many_arguments)]
    fn finish_step<T: TraceSink>(
        &mut self,
        proc_index: ProcIndex,
        pe_index: PeIndex,
        start_ns: u64,
        cycles: u64,
        from_state: Sym,
        to_state: Sym,
        trigger: Sym,
        tracer: &mut T,
    ) {
        let duration_ns = self.pes[pe_index].descriptor.ns_for_cycles(cycles);
        let end_ns = start_ns + duration_ns;
        if tracer.enabled() {
            let pe_name = &self.pes[pe_index].descriptor.name;
            let track = tracer.track(&format!("pe/{pe_name}"), Clock::Sim);
            tracer.span(
                track,
                &format!(
                    "{} [{}]",
                    self.processes[proc_index].name,
                    self.log.resolve(trigger)
                ),
                start_ns,
                duration_ns,
            );
            tracer.observe("sim.step_duration_ns", duration_ns);
            tracer.add(&format!("pe.{pe_name}.busy_ns"), duration_ns);
        }
        self.log.push_exec(
            start_ns,
            self.processes[proc_index].name_sym,
            cycles,
            duration_ns,
            from_state,
            to_state,
            trigger,
        );
        let stats = &mut self.processes[proc_index].stats;
        stats.steps += 1;
        stats.cycles += cycles;
        stats.busy_ns += duration_ns;
        if !self.pes[pe_index].is_env {
            // Useful work for the watchdog's quiescence deadline.
            self.last_useful_ns = self.last_useful_ns.max(start_ns);
        }
        let pe = &mut self.pes[pe_index];
        pe.free_at_ns = end_ns;
        pe.busy_ns += duration_ns;
        pe.busy_cycles += cycles;
        self.schedule(end_ns, EventKind::PeFree { pe: pe_index });
    }

    /// Delivers a sent signal to the send site's receivers, applying the
    /// fault model's per-transfer verdict to HIBI-borne signals.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_send<F: FaultModel, T: TraceSink>(
        &mut self,
        sender: ProcIndex,
        send: &SendRt,
        values: Vec<Value>,
        send_time_ns: u64,
        faults: &mut F,
        tracer: &mut T,
    ) {
        let sender_sym = self.processes[sender].name_sym;
        let signal = send.signal;
        let signal_sym = self.signal_syms[signal.index()];
        if let Some(port_sym) = send.lost {
            self.log
                .push_lost(send_time_ns, sender_sym, port_sym, signal_sym);
            return;
        }
        let bytes = self.payload_bytes(&values);
        let fanout = send.receivers.len() as u64;
        self.processes[sender].stats.signals_sent += fanout;
        self.processes[sender].stats.bytes_sent += bytes * fanout;
        // The payload moves into the last receiver's delivery; earlier
        // receivers (multicast) get clones.
        let mut payload = Some(values);
        for (i, receiver) in send.receivers.iter().enumerate() {
            let mut values = if i + 1 == send.receivers.len() {
                payload
                    .take()
                    .expect("payload consumed before last receiver")
            } else {
                payload
                    .as_ref()
                    .expect("payload consumed before last receiver")
                    .clone()
            };
            let delivery_ns = match receiver.route {
                Route::Local => send_time_ns + LOCAL_LATENCY_NS,
                Route::Env => send_time_ns + ENV_LATENCY_NS,
                Route::Bus { from, to } => {
                    let result = self.network.transfer(from, to, bytes, send_time_ns, tracer);
                    if !result.routed {
                        // The network tallies the count; the log records
                        // which signal fell back.
                        self.log.push_fault(
                            send_time_ns,
                            sender_sym,
                            self.unroutable_sym,
                            signal_sym,
                        );
                    }
                    if faults.is_active() {
                        // Only HIBI-borne signals are subject to the
                        // channel fault process; local and environment
                        // deliveries are memory copies. The salt keys
                        // this transfer's draws so they are the same
                        // regardless of global call order.
                        let salt = self.next_fault_salt(sender);
                        match faults.transfer_verdict(
                            send_time_ns,
                            bytes,
                            result.segments_traversed,
                            salt,
                        ) {
                            TransferVerdict::Deliver => {}
                            TransferVerdict::Corrupt => {
                                corrupt_values(&mut values, faults, send_time_ns, salt);
                                self.fault_tally.corrupted += 1;
                                tracer.add("sim.faults_corrupted", 1);
                                self.log.push_fault(
                                    send_time_ns,
                                    sender_sym,
                                    self.corrupt_sym,
                                    signal_sym,
                                );
                            }
                            TransferVerdict::Drop => {
                                self.fault_tally.dropped += 1;
                                tracer.add("sim.faults_dropped", 1);
                                self.log.push_fault(
                                    send_time_ns,
                                    sender_sym,
                                    self.drop_sym,
                                    signal_sym,
                                );
                                continue;
                            }
                        }
                    }
                    result.completion_ns
                }
            };
            self.schedule(
                delivery_ns,
                EventKind::Deliver {
                    target: receiver.target,
                    entry_kind: DeliverKind::Signal {
                        signal,
                        values,
                        sender,
                        bytes,
                        sent_at_ns: send_time_ns,
                    },
                },
            );
        }
    }

    fn runtime_error(&self, proc_index: ProcIndex, err: tut_uml::Error) -> SimError {
        SimError::Runtime {
            process: self.processes[proc_index].name.clone(),
            message: err.to_string(),
        }
    }

    /// Up to three processes most likely responsible for a livelock:
    /// deepest input queues first, then most steps executed, then name.
    fn hot_processes(&self) -> Vec<String> {
        let mut ranked: Vec<&ProcessRt> = self.processes.iter().collect();
        ranked.sort_by(|a, b| {
            b.queue
                .len()
                .cmp(&a.queue.len())
                .then(b.stats.steps.cmp(&a.stats.steps))
                .then(a.name.cmp(&b.name))
        });
        ranked.into_iter().take(3).map(|p| p.name.clone()).collect()
    }

    fn watchdog_expired(&self, time_ns: u64, events: u64, limit: &str) -> SimError {
        SimError::WatchdogExpired {
            time_ns,
            events,
            limit: limit.to_owned(),
            hot_processes: self.hot_processes(),
        }
    }

    fn into_report(self) -> SimReport {
        let mut report = SimReport {
            end_time_ns: self.now_ns,
            total_steps: self.steps,
            log: self.log,
            processes: Vec::new(),
            pes: Vec::new(),
            faults: FaultTally {
                unroutable: self.network.unroutable_transfers(),
                ..self.fault_tally
            },
        };
        for process in self.processes {
            report.processes.push((process.name, process.stats));
        }
        for pe in self.pes {
            report.pes.push((
                pe.descriptor.name.clone(),
                PeStats {
                    busy_ns: pe.busy_ns,
                    busy_cycles: pe.busy_cycles,
                    is_env: pe.is_env,
                },
            ));
        }
        report
    }
}

/// The route of a delivery from a process on element `from` to one on
/// element `to`.
fn route(pes: &[PeRt], from: PeIndex, to: PeIndex) -> Route {
    if from == to {
        Route::Local
    } else if pes[from].is_env || pes[to].is_env {
        Route::Env
    } else {
        match (pes[from].agent, pes[to].agent) {
            (Some(from), Some(to)) => Route::Bus { from, to },
            _ => Route::Local,
        }
    }
}

/// Corrupts an in-flight payload: flips one bit of the first `Bytes`
/// value, or perturbs the first `Int` through its little-endian byte
/// image when the signal carries no raw bytes. Signals with no
/// corruptible value (e.g. `Bool`/`Str` only) keep the fault record but
/// arrive unchanged. A `Bytes` buffer shared with the sender or another
/// receiver is copied before the flip (copy-on-write), so only this
/// delivery sees the error.
fn corrupt_values<F: FaultModel>(values: &mut [Value], faults: &mut F, now_ns: u64, salt: u64) {
    if let Some(bytes) = values.iter_mut().find_map(|v| match v {
        Value::Bytes(b) if !b.is_empty() => Some(b),
        _ => None,
    }) {
        faults.corrupt_payload(now_ns, bytes.make_mut(), salt);
        return;
    }
    if let Some(value) = values.iter_mut().find(|v| matches!(v, Value::Int(_))) {
        if let Value::Int(n) = value {
            let mut image = n.to_le_bytes();
            faults.corrupt_payload(now_ns, &mut image, salt);
            *value = Value::Int(i64::from_le_bytes(image));
        }
    }
}

/// Checked `i64 → u32` lowering of a platform tagged value; out-of-range
/// values become a spanned-attributable [`SimError::ParamOutOfRange`]
/// instead of silently truncating.
fn param_u32(
    part: PropertyId,
    owner: &str,
    param: &'static str,
    value: i64,
) -> Result<u32, SimError> {
    u32::try_from(value).map_err(|_| SimError::ParamOutOfRange {
        element: part.to_string(),
        owner: owner.to_owned(),
        param,
        value,
        min: 0,
        max: u32::MAX as u64,
    })
}

/// Checked `i64 → u64` lowering (rejects negative values).
fn param_u64(
    part: PropertyId,
    owner: &str,
    param: &'static str,
    value: i64,
) -> Result<u64, SimError> {
    u64::try_from(value).map_err(|_| SimError::ParamOutOfRange {
        element: part.to_string(),
        owner: owner.to_owned(),
        param,
        value,
        min: 0,
        max: u64::MAX,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::log::RecordRef;
    use tut_faults::{FaultConfig, FaultPlan, Outage};
    use tut_profile::application::ProcessType;
    use tut_profile::platform::ComponentKind;
    use tut_profile_core::TagValue;
    use tut_uml::action::{BinOp, Builtin, CostClass, Expr, Statement};
    use tut_uml::statemachine::{StateMachine, Trigger};
    use tut_uml::value::DataType;

    /// A ping-pong system: two processes exchanging a counter signal,
    /// mapped to two CPUs on one HIBI segment.
    fn ping_pong(count: i64, same_pe: bool) -> SystemModel {
        let mut s = SystemModel::new("PingPong");
        let top = s.model.add_class("Top");
        s.apply(top, |t| t.application).unwrap();

        let ping_sig = s.model.add_signal("Ping");
        s.model.signal_mut(ping_sig).add_param("n", DataType::Int);
        let pong_sig = s.model.add_signal("Pong");
        s.model.signal_mut(pong_sig).add_param("n", DataType::Int);

        // Pinger: starts the exchange, counts down.
        let pinger = s.model.add_class("Pinger");
        s.apply(pinger, |t| t.application_component).unwrap();
        let p_out = s.model.add_port(pinger, "out");
        let p_in = s.model.add_port(pinger, "in");
        s.model.port_mut(p_out).add_required(ping_sig);
        s.model.port_mut(p_in).add_provided(pong_sig);
        let mut sm = StateMachine::new("PingerB");
        let idle = sm.add_state_with_entry(
            "Idle",
            vec![Statement::Send {
                port: "out".into(),
                signal: ping_sig,
                args: vec![Expr::int(count)],
            }],
        );
        let wait = sm.add_state("Wait");
        sm.set_initial(idle);
        sm.add_transition(idle, wait, Trigger::Completion, None, vec![]);
        // On Pong with n > 0 send another Ping.
        sm.add_transition(
            wait,
            wait,
            Trigger::Signal(pong_sig),
            Some(Expr::param("n").bin(BinOp::Gt, Expr::int(0))),
            vec![
                Statement::Compute {
                    class: CostClass::Control,
                    amount: Expr::int(10),
                },
                Statement::Send {
                    port: "out".into(),
                    signal: ping_sig,
                    args: vec![Expr::param("n")],
                },
            ],
        );
        s.model.add_state_machine(pinger, sm);

        // Ponger: replies with n-1.
        let ponger = s.model.add_class("Ponger");
        s.apply(ponger, |t| t.application_component).unwrap();
        let q_in = s.model.add_port(ponger, "in");
        let q_out = s.model.add_port(ponger, "out");
        s.model.port_mut(q_in).add_provided(ping_sig);
        s.model.port_mut(q_out).add_required(pong_sig);
        let mut sm = StateMachine::new("PongerB");
        let st = sm.add_state("S");
        sm.set_initial(st);
        sm.add_transition(
            st,
            st,
            Trigger::Signal(ping_sig),
            None,
            vec![
                Statement::Compute {
                    class: CostClass::Control,
                    amount: Expr::int(50),
                },
                Statement::Send {
                    port: "out".into(),
                    signal: pong_sig,
                    args: vec![Expr::param("n").bin(BinOp::Sub, Expr::int(1))],
                },
            ],
        );
        s.model.add_state_machine(ponger, sm);

        let ping_part = s.model.add_part(top, "pinger", pinger);
        let pong_part = s.model.add_part(top, "ponger", ponger);
        for part in [ping_part, pong_part] {
            s.apply(part, |t| t.application_process).unwrap();
        }
        s.model.add_connector(
            top,
            "ping_wire",
            tut_uml::model::ConnectorEnd {
                part: Some(ping_part),
                port: p_out,
            },
            tut_uml::model::ConnectorEnd {
                part: Some(pong_part),
                port: q_in,
            },
        );
        s.model.add_connector(
            top,
            "pong_wire",
            tut_uml::model::ConnectorEnd {
                part: Some(pong_part),
                port: q_out,
            },
            tut_uml::model::ConnectorEnd {
                part: Some(ping_part),
                port: p_in,
            },
        );

        // Groups + platform + mapping.
        let g1 = s.add_process_group("group1", false, ProcessType::General);
        let g2 = s.add_process_group("group2", false, ProcessType::General);
        s.assign_to_group(ping_part, g1);
        s.assign_to_group(pong_part, g2);

        let (cpu1, cpu2) = two_cpus_on_one_segment(&mut s);
        s.map_group(g1, cpu1, false);
        if same_pe {
            s.map_group(g2, cpu1, false);
        } else {
            s.map_group(g2, cpu2, false);
        }
        s
    }

    /// Two Nios CPUs, `cpu1` and `cpu2`, each behind a HIBI wrapper on
    /// one shared segment.
    fn two_cpus_on_one_segment(s: &mut SystemModel) -> (PropertyId, PropertyId) {
        let platform = s.model.add_class("Platform");
        s.apply(platform, |t| t.platform).unwrap();
        let nios = s.add_platform_component("Nios", ComponentKind::General, 50, 2.0, 0.5);
        let cpu1 = s.add_platform_instance(platform, "cpu1", nios, 1, 0);
        let cpu2 = s.add_platform_instance(platform, "cpu2", nios, 2, 0);

        // One segment with two wrappers.
        let seg_class = s.model.add_class("Seg");
        s.apply(seg_class, |t| t.hibi_segment).unwrap();
        let wrap_class = s.model.add_class("Wrap");
        s.apply_with(
            wrap_class,
            |t| t.hibi_wrapper,
            [("Address", TagValue::Int(16))],
        )
        .unwrap();
        let wrap_class2 = s.model.add_class("Wrap2");
        s.apply_with(
            wrap_class2,
            |t| t.hibi_wrapper,
            [("Address", TagValue::Int(32))],
        )
        .unwrap();
        let seg = s.model.add_part(platform, "seg", seg_class);
        let seg_port = s.model.add_port(seg_class, "agents");
        let nios_port = s.model.add_port(nios, "hibi");
        for (cpu, wc, name) in [(cpu1, wrap_class, "w1"), (cpu2, wrap_class2, "w2")] {
            let wp = s.model.add_port(wc, "pe");
            let wb = s.model.add_port(wc, "bus");
            let w = s.model.add_part(platform, name, wc);
            s.model.add_connector(
                platform,
                format!("{name}_pe"),
                tut_uml::model::ConnectorEnd {
                    part: Some(w),
                    port: wp,
                },
                tut_uml::model::ConnectorEnd {
                    part: Some(cpu),
                    port: nios_port,
                },
            );
            s.model.add_connector(
                platform,
                format!("{name}_bus"),
                tut_uml::model::ConnectorEnd {
                    part: Some(w),
                    port: wb,
                },
                tut_uml::model::ConnectorEnd {
                    part: Some(seg),
                    port: seg_port,
                },
            );
        }
        (cpu1, cpu2)
    }

    /// `src` multicasts one 64-byte `Bytes` payload through a single port
    /// to `near` (on its own CPU: a local delivery) and `far` (across the
    /// HIBI segment). Each logs the CRC of the bytes it holds afterwards.
    fn multicast_bytes(far_first: bool) -> SystemModel {
        let mut s = SystemModel::new("Multicast");
        let top = s.model.add_class("Top");
        s.apply(top, |t| t.application).unwrap();
        let data = s.model.add_signal("Data");
        s.model
            .signal_mut(data)
            .add_param("payload", DataType::Bytes);
        let crc = |e: Expr| Expr::call(Builtin::Crc32, vec![e]);

        let source = s.model.add_class("Source");
        s.apply(source, |t| t.application_component).unwrap();
        let out = s.model.add_port(source, "out");
        s.model.port_mut(out).add_required(data);
        let mut sm = StateMachine::new("SourceB");
        sm.add_variable("buf", DataType::Bytes, Value::from(vec![0xA5; 64]));
        let idle = sm.add_state_with_entry(
            "Idle",
            vec![Statement::Send {
                port: "out".into(),
                signal: data,
                args: vec![Expr::var("buf")],
            }],
        );
        let done = sm.add_state("Done");
        sm.set_initial(idle);
        sm.add_transition(
            idle,
            done,
            Trigger::Completion,
            None,
            vec![Statement::Log {
                message: "crc {}".into(),
                args: vec![crc(Expr::var("buf"))],
            }],
        );
        s.model.add_state_machine(source, sm);

        let sink = s.model.add_class("Sink");
        s.apply(sink, |t| t.application_component).unwrap();
        let inp = s.model.add_port(sink, "in");
        s.model.port_mut(inp).add_provided(data);
        let mut sm = StateMachine::new("SinkB");
        let st = sm.add_state("S");
        sm.set_initial(st);
        sm.add_transition(
            st,
            st,
            Trigger::Signal(data),
            None,
            vec![Statement::Log {
                message: "crc {}".into(),
                args: vec![crc(Expr::param("payload"))],
            }],
        );
        s.model.add_state_machine(sink, sm);

        let src = s.model.add_part(top, "src", source);
        let near = s.model.add_part(top, "near", sink);
        let far = s.model.add_part(top, "far", sink);
        let receivers = if far_first { [far, near] } else { [near, far] };
        for (i, part) in receivers.into_iter().enumerate() {
            s.model.add_connector(
                top,
                format!("wire{i}"),
                tut_uml::model::ConnectorEnd {
                    part: Some(src),
                    port: out,
                },
                tut_uml::model::ConnectorEnd {
                    part: Some(part),
                    port: inp,
                },
            );
        }
        for part in [src, near, far] {
            s.apply(part, |t| t.application_process).unwrap();
        }
        let g1 = s.add_process_group("group1", false, ProcessType::General);
        let g2 = s.add_process_group("group2", false, ProcessType::General);
        s.assign_to_group(src, g1);
        s.assign_to_group(near, g1);
        s.assign_to_group(far, g2);
        let (cpu1, cpu2) = two_cpus_on_one_segment(&mut s);
        s.map_group(g1, cpu1, false);
        s.map_group(g2, cpu2, false);
        s
    }

    /// Multicast copies share the sender's buffer; corrupting the copy
    /// that crosses the bus must change neither the local receiver's
    /// payload nor the sender's variable (copy-on-write), whichever
    /// receiver the engine serves last.
    #[test]
    fn corrupting_one_multicast_copy_leaves_the_others_intact() {
        let intact = format!("crc {}", tut_uml::action::crc32(&[0xA5; 64]));
        for far_first in [false, true] {
            let mut plan = FaultPlan::new(FaultConfig::with_ber(7, 1.0));
            let report = Simulation::from_system(&multicast_bytes(far_first), SimConfig::default())
                .unwrap()
                .run_with_faults(&mut plan, &mut NoopSink)
                .unwrap();
            assert_eq!(report.faults.corrupted, 1, "only the bus copy is corrupted");
            let logged = |who: &str| -> String {
                report
                    .log
                    .iter()
                    .find_map(|r| match r {
                        RecordRef::User {
                            process, message, ..
                        } if process == who => Some(message.to_owned()),
                        _ => None,
                    })
                    .unwrap_or_else(|| panic!("{who} logged nothing"))
            };
            assert_eq!(
                logged("src"),
                intact,
                "sender's variable (far_first={far_first})"
            );
            assert_eq!(
                logged("near"),
                intact,
                "local receiver (far_first={far_first})"
            );
            assert_ne!(logged("far"), intact, "bus receiver sees the corruption");
        }
    }

    /// A multicast send delivers the whole payload to every receiver:
    /// the last one takes the sender's values, each earlier one a clone.
    #[test]
    fn multicast_send_clones_the_payload_for_each_extra_receiver() {
        let intact = format!("crc {}", tut_uml::action::crc32(&[0xA5; 64]));
        for far_first in [false, true] {
            let report = Simulation::from_system(&multicast_bytes(far_first), SimConfig::default())
                .unwrap()
                .run()
                .unwrap();
            let stats = |who: &str| {
                report
                    .processes
                    .iter()
                    .find(|(name, _)| name == who)
                    .map(|(_, stats)| *stats)
                    .unwrap()
            };
            assert_eq!(stats("src").signals_sent, 2);
            assert_eq!(stats("src").bytes_sent, 2 * (HEADER_BYTES + 64));
            let users: Vec<(String, String)> = report
                .log
                .iter()
                .filter_map(|r| match r {
                    RecordRef::User {
                        process, message, ..
                    } => Some((process.to_owned(), message.to_owned())),
                    _ => None,
                })
                .collect();
            for who in ["near", "far"] {
                assert_eq!(stats(who).signals_received, 1, "{who}");
                assert!(
                    users.contains(&(who.to_owned(), intact.clone())),
                    "{who} holds the full payload (far_first={far_first}): {users:?}"
                );
            }
        }
    }

    #[test]
    fn ping_pong_completes_expected_rounds() {
        let system = ping_pong(5, false);
        let sim = Simulation::from_system(&system, SimConfig::default()).unwrap();
        let report = sim.run().unwrap();
        // 5 pings, 5 pongs (n = 5..1), final pong n=0 consumed without send.
        let sig_count = report
            .log
            .iter()
            .filter(|r| matches!(r, RecordRef::Sig { .. }))
            .count();
        assert_eq!(sig_count, 10, "log: {}", report.log.to_text());
        // Ponger did 5 compute-heavy steps.
        let ponger = report
            .processes
            .iter()
            .find(|(name, _)| name == "ponger")
            .unwrap();
        assert_eq!(ponger.1.signals_received, 5);
        assert!(ponger.1.cycles > 0);
        assert!(report.end_time_ns > 0);
    }

    #[test]
    fn same_pe_mapping_avoids_the_bus() {
        let cross = Simulation::from_system(&ping_pong(20, false), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let local = Simulation::from_system(&ping_pong(20, true), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        // Paper §4.1: grouping to minimise communication between PEs
        // improves performance; local mapping should finish sooner.
        assert!(
            local.end_time_ns < cross.end_time_ns,
            "local {} vs cross {}",
            local.end_time_ns,
            cross.end_time_ns
        );
    }

    #[test]
    fn deterministic_runs_produce_identical_logs() {
        let a = Simulation::from_system(&ping_pong(10, false), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let b = Simulation::from_system(&ping_pong(10, false), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(a.log, b.log);
        assert_eq!(a.end_time_ns, b.end_time_ns);
    }

    #[test]
    fn missing_application_rejected() {
        let s = SystemModel::new("Empty");
        assert!(matches!(
            Simulation::from_system(&s, SimConfig::default()),
            Err(SimError::NoApplication)
        ));
    }

    #[test]
    fn interned_log_renders_identically_to_per_record_rendering() {
        let report = Simulation::from_system(&ping_pong(10, false), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let text = report.log.to_text();
        // The streamed rendering must match rendering each record on its
        // own (the pre-interning code path).
        let mut manual = String::from("# TUT-Profile simulation log-file v1\n");
        for record in report.log.iter() {
            manual.push_str(&record.to_owned().to_line());
            manual.push('\n');
        }
        assert_eq!(text, manual);
        // A re-parsed log interns in a different order yet renders the
        // same bytes.
        let parsed = SimLog::parse(&text).unwrap();
        assert_eq!(parsed.to_text(), text);
    }

    #[test]
    fn log_round_trips_through_text() {
        let report = Simulation::from_system(&ping_pong(3, false), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let text = report.log.to_text();
        let parsed = SimLog::parse(&text).unwrap();
        assert_eq!(parsed, report.log);
    }

    #[test]
    fn step_bound_stops_runaway_models() {
        let config = SimConfig {
            max_steps: 7,
            ..SimConfig::default()
        };
        let report = Simulation::from_system(&ping_pong(1_000_000, false), config)
            .unwrap()
            .run()
            .unwrap();
        assert!(report.total_steps <= 7);
    }

    #[test]
    fn zero_rate_fault_plan_matches_fault_free_run() {
        let baseline = Simulation::from_system(&ping_pong(10, false), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let mut plan = FaultPlan::new(FaultConfig::default());
        let faulted = Simulation::from_system(&ping_pong(10, false), SimConfig::default())
            .unwrap()
            .run_with_faults(&mut plan, &mut NoopSink)
            .unwrap();
        assert_eq!(baseline.log.to_text(), faulted.log.to_text());
        assert_eq!(baseline.end_time_ns, faulted.end_time_ns);
        assert_eq!(faulted.faults, FaultTally::default());
    }

    #[test]
    fn dropped_transfers_are_recorded_and_tallied() {
        let mut plan = FaultPlan::new(FaultConfig {
            drop_per_hop: 1.0,
            ..FaultConfig::default()
        });
        let report = Simulation::from_system(&ping_pong(10, false), SimConfig::default())
            .unwrap()
            .run_with_faults(&mut plan, &mut NoopSink)
            .unwrap();
        // The very first ping is dropped on the bus, so the exchange
        // dies immediately.
        assert_eq!(report.faults.dropped, 1);
        let drops = report
            .log
            .iter()
            .filter(|r| matches!(r, RecordRef::Fault { kind, .. } if *kind == "drop"))
            .count();
        assert_eq!(drops, 1);
        let sigs = report
            .log
            .iter()
            .filter(|r| matches!(r, RecordRef::Sig { .. }))
            .count();
        assert_eq!(sigs, 0, "no signal survives a 100% drop channel");
    }

    #[test]
    fn corrupted_transfers_mutate_the_payload_in_flight() {
        let config = SimConfig {
            max_steps: 400,
            ..SimConfig::default()
        };
        let mut plan = FaultPlan::new(FaultConfig::with_ber(7, 1.0));
        let report = Simulation::from_system(&ping_pong(3, false), config)
            .unwrap()
            .run_with_faults(&mut plan, &mut NoopSink)
            .unwrap();
        assert!(report.faults.corrupted > 0);
        assert_eq!(report.faults.injected(), report.faults.corrupted);
        let faults = report
            .log
            .iter()
            .filter(|r| matches!(r, RecordRef::Fault { kind, .. } if *kind == "corrupt"))
            .count() as u64;
        assert_eq!(faults, report.faults.corrupted);
    }

    #[test]
    fn event_budget_watchdog_converts_storms_into_errors() {
        let config = SimConfig {
            watchdog: crate::config::Watchdog {
                max_events: 50,
                quiescence_ns: 0,
            },
            ..SimConfig::default()
        };
        let err = Simulation::from_system(&ping_pong(1_000_000, false), config)
            .unwrap()
            .run()
            .unwrap_err();
        match err {
            SimError::WatchdogExpired {
                limit,
                events,
                hot_processes,
                ..
            } => {
                assert_eq!(limit, "event-budget");
                assert_eq!(events, 51);
                assert!(!hot_processes.is_empty());
            }
            other => panic!("expected WatchdogExpired, got {other:?}"),
        }
    }

    #[test]
    fn finite_outage_delays_but_does_not_lose_work() {
        let clean = Simulation::from_system(&ping_pong(5, false), SimConfig::default())
            .unwrap()
            .run()
            .unwrap();
        // cpu2 (the ponger's element) is down for the first 50 µs.
        let mut plan = FaultPlan::new(FaultConfig {
            outages: vec![Outage {
                pe: "cpu2".into(),
                from_ns: 0,
                until_ns: 50_000,
            }],
            ..FaultConfig::default()
        });
        let stalled = Simulation::from_system(&ping_pong(5, false), SimConfig::default())
            .unwrap()
            .run_with_faults(&mut plan, &mut NoopSink)
            .unwrap();
        let sigs = |r: &SimReport| {
            r.log
                .iter()
                .filter(|rec| matches!(rec, RecordRef::Sig { .. }))
                .count()
        };
        assert_eq!(sigs(&clean), sigs(&stalled), "no signal is lost");
        assert!(
            stalled.end_time_ns > clean.end_time_ns,
            "outage defers completion: {} vs {}",
            stalled.end_time_ns,
            clean.end_time_ns
        );
    }

    /// An environment traffic source driving a sink whose element never
    /// comes back: events keep flowing but no useful work happens.
    fn env_driven_sink() -> SystemModel {
        let mut s = SystemModel::new("Stall");
        let top = s.model.add_class("Top");
        s.apply(top, |t| t.application).unwrap();
        let tick = s.model.add_signal("Tick");

        let ticker = s.model.add_class("Ticker");
        s.apply(ticker, |t| t.application_component).unwrap();
        let t_out = s.model.add_port(ticker, "out");
        s.model.port_mut(t_out).add_required(tick);
        let mut sm = StateMachine::new("TickerB");
        let run = sm.add_state_with_entry(
            "Run",
            vec![Statement::SetTimer {
                name: "t".into(),
                duration: Expr::int(500),
            }],
        );
        sm.set_initial(run);
        sm.add_transition(
            run,
            run,
            Trigger::Timer("t".into()),
            None,
            vec![
                Statement::Send {
                    port: "out".into(),
                    signal: tick,
                    args: vec![],
                },
                Statement::SetTimer {
                    name: "t".into(),
                    duration: Expr::int(500),
                },
            ],
        );
        s.model.add_state_machine(ticker, sm);

        let sink = s.model.add_class("Sink");
        s.apply(sink, |t| t.application_component).unwrap();
        let s_in = s.model.add_port(sink, "in");
        s.model.port_mut(s_in).add_provided(tick);
        let mut sm = StateMachine::new("SinkB");
        let st = sm.add_state("S");
        sm.set_initial(st);
        sm.add_transition(
            st,
            st,
            Trigger::Signal(tick),
            None,
            vec![Statement::Compute {
                class: CostClass::Control,
                amount: Expr::int(10),
            }],
        );
        s.model.add_state_machine(sink, sm);

        let tick_part = s.model.add_part(top, "ticker", ticker);
        let sink_part = s.model.add_part(top, "sink", sink);
        for part in [tick_part, sink_part] {
            s.apply(part, |t| t.application_process).unwrap();
        }
        s.model.add_connector(
            top,
            "wire",
            tut_uml::model::ConnectorEnd {
                part: Some(tick_part),
                port: t_out,
            },
            tut_uml::model::ConnectorEnd {
                part: Some(sink_part),
                port: s_in,
            },
        );

        // Only the sink is mapped; the ticker stays on the environment
        // element (a traffic source outside the platform).
        let g1 = s.add_process_group("group1", false, ProcessType::General);
        s.assign_to_group(sink_part, g1);
        let platform = s.model.add_class("Platform");
        s.apply(platform, |t| t.platform).unwrap();
        let nios = s.add_platform_component("Nios", ComponentKind::General, 50, 2.0, 0.5);
        let cpu1 = s.add_platform_instance(platform, "cpu1", nios, 1, 0);
        s.map_group(g1, cpu1, false);
        s
    }

    #[test]
    fn quiescence_watchdog_names_the_stalled_process() {
        let config = SimConfig {
            watchdog: crate::config::Watchdog {
                max_events: 0,
                quiescence_ns: 10_000,
            },
            ..SimConfig::default()
        };
        let mut plan = FaultPlan::new(FaultConfig {
            outages: vec![Outage {
                pe: "cpu1".into(),
                from_ns: 0,
                until_ns: u64::MAX,
            }],
            ..FaultConfig::default()
        });
        let err = Simulation::from_system(&env_driven_sink(), config)
            .unwrap()
            .run_with_faults(&mut plan, &mut NoopSink)
            .unwrap_err();
        match err {
            SimError::WatchdogExpired {
                limit,
                time_ns,
                hot_processes,
                ..
            } => {
                assert_eq!(limit, "quiescence");
                assert!(time_ns > 10_000);
                assert_eq!(hot_processes.first().map(String::as_str), Some("sink"));
            }
            other => panic!("expected WatchdogExpired, got {other:?}"),
        }
        // Without the outage the same watchdog stays quiet.
        let config = SimConfig {
            watchdog: crate::config::Watchdog {
                max_events: 0,
                quiescence_ns: 10_000,
            },
            ..SimConfig::default()
        };
        let report = Simulation::from_system(&env_driven_sink(), config)
            .unwrap()
            .run()
            .unwrap();
        assert!(report.total_steps > 0);
    }
}
