//! The functional IP block: a trace-replaying traffic generator that
//! executes its tasks at whatever speed the PSM currently allows.
//!
//! Matching the paper (§1.1): *"The functional IP sends a task execution
//! request to the LEM before the execution of each task … and the PSM
//! enables the functional IP for the execution of the instruction
//! according to the power state."* Execution progress is tracked in
//! cycles; a power-state change mid-task re-times the completion event,
//! which is exact for piecewise-constant clock frequencies.

use dpm_kernel::{Ctx, EventId, Fifo, Process, ProcessId, Signal, Simulation};
use dpm_power::{EnergyMeter, IpPowerModel, PowerState};
use dpm_units::{Energy, Power, SimDuration, SimTime};
use dpm_workload::{TaskSpec, TaskTrace};

use dpm_core::msg::{TaskGrant, TaskRequest};

/// The IP-side port bundle (complements [`dpm_core::LemPorts`]).
#[derive(Debug, Clone, Copy)]
pub struct IpPorts {
    /// Task requests to the controller.
    pub requests: Fifo<TaskRequest>,
    /// Grants from the controller.
    pub grants: Fifo<TaskGrant>,
    /// Completed-task counter.
    pub done_count: Signal<u64>,
    /// PSM actual state (read for execution speed).
    pub psm_state: Signal<PowerState>,
    /// PSM transition flag (no execution while `true`).
    pub psm_busy: Signal<bool>,
    /// Published instantaneous power draw (W).
    pub power: Signal<f64>,
}

/// Per-task outcome record.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TaskRecord {
    /// The task.
    pub spec: TaskSpec,
    /// When the grant arrived.
    pub granted_at: SimTime,
    /// When execution finished.
    pub finished_at: SimTime,
}

impl TaskRecord {
    /// Arrival-to-completion latency.
    pub fn latency(&self) -> SimDuration {
        self.finished_at
            .saturating_duration_since(self.spec.arrival)
    }
}

struct Exec {
    spec: TaskSpec,
    remaining_cycles: f64,
    speed_hz: f64,
    last_update: SimTime,
    granted_at: SimTime,
}

/// The functional IP process.
pub struct IpBlock {
    ports: IpPorts,
    model: IpPowerModel,
    trace: TaskTrace,
    next_arrival: usize,
    arrival: EventId,
    exec_done: EventId,
    current: Option<Exec>,
    done: u64,
    records: Vec<TaskRecord>,
    meter: EnergyMeter,
}

impl IpBlock {
    /// Creates the IP, its events and sensitivity list.
    pub fn spawn(
        sim: &mut Simulation,
        name: &str,
        model: IpPowerModel,
        trace: &TaskTrace,
        ports: IpPorts,
    ) -> ProcessId {
        let arrival = sim.event(&format!("{name}.arrival"));
        let exec_done = sim.event(&format!("{name}.exec_done"));
        let ip = IpBlock {
            ports,
            model,
            trace: trace.clone(),
            next_arrival: 0,
            arrival,
            exec_done,
            current: None,
            done: 0,
            records: Vec::new(),
            meter: EnergyMeter::new(SimTime::ZERO, PowerState::On1, Power::ZERO),
        };
        let pid = sim.add_process(name, ip);
        sim.sensitize(pid, arrival);
        sim.sensitize(pid, exec_done);
        sim.sensitize(pid, ports.grants.written_event());
        sim.sensitize_signal(pid, ports.psm_state);
        sim.sensitize_signal(pid, ports.psm_busy);
        pid
    }

    /// Completed-task records (post-run inspection).
    pub fn records(&self) -> &[TaskRecord] {
        &self.records
    }

    /// Total tasks in the replayed trace.
    pub fn trace_len(&self) -> usize {
        self.trace.len()
    }

    /// Energy meter of this IP (execution/hold energy; transition energy
    /// is accounted by the PSM).
    pub fn meter(&self) -> &EnergyMeter {
        &self.meter
    }

    /// Closes the energy integral at `now` (call once after the run).
    pub fn finish_meter(&mut self, now: SimTime) -> Energy {
        self.meter.finish(now)
    }

    fn schedule_next_arrival(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(spec) = self.trace.tasks().get(self.next_arrival) {
            let delay = spec.arrival.saturating_duration_since(ctx.now());
            ctx.notify(self.arrival, delay);
        }
    }

    /// Current execution speed in Hz given the PSM signals.
    fn speed_now(&self, ctx: &Ctx<'_>) -> f64 {
        let state = ctx.read(self.ports.psm_state);
        let busy = ctx.read(self.ports.psm_busy);
        if busy || !state.is_execution() {
            return 0.0;
        }
        match self.current.as_ref() {
            Some(exec) => self
                .model
                .throughput(state, &exec.spec.mix)
                .map(|ips| ips * exec.spec.mix.average_cpi())
                .unwrap_or(0.0), // cycles per second = f (throughput×cpi)
            None => 0.0,
        }
    }

    /// Settles execution progress up to now, completes the task if done,
    /// and re-schedules the completion event. Returns `true` when a task
    /// completed in this call.
    fn settle_execution(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let now = ctx.now();
        let Some(exec) = self.current.as_mut() else {
            return false;
        };
        let elapsed = now.saturating_duration_since(exec.last_update);
        exec.remaining_cycles -= elapsed.as_secs_f64() * exec.speed_hz;
        exec.last_update = now;
        if exec.remaining_cycles <= 1e-6 {
            let record = TaskRecord {
                spec: exec.spec,
                granted_at: exec.granted_at,
                finished_at: now,
            };
            self.current = None;
            self.records.push(record);
            self.done += 1;
            ctx.write(self.ports.done_count, self.done);
            ctx.cancel(self.exec_done);
            return true;
        }
        // re-time the completion under the (possibly new) speed
        let speed = self.speed_now(ctx);
        let exec = self.current.as_mut().expect("still executing");
        exec.speed_hz = speed;
        ctx.cancel(self.exec_done);
        if speed > 0.0 {
            let dt = SimDuration::from_secs_f64(exec.remaining_cycles / speed);
            ctx.notify(self.exec_done, dt.max(SimDuration::from_ps(1)));
        }
        false
    }

    /// Publishes the current power draw and updates the energy meter.
    fn publish_power(&mut self, ctx: &mut Ctx<'_>) {
        let state = ctx.read(self.ports.psm_state);
        let busy = ctx.read(self.ports.psm_busy);
        let executing = self.current.as_ref().is_some_and(|e| e.speed_hz > 0.0);
        let power = if busy {
            // transition power is published by the PSM itself
            Power::ZERO
        } else if executing {
            let mix = self.current.as_ref().expect("executing").spec.mix;
            self.model.mix_power(state, &mix)
        } else {
            self.model.state_power(state)
        };
        self.meter.set_state(ctx.now(), state, power);
        ctx.write(self.ports.power, power.as_watts());
    }
}

impl Process for IpBlock {
    fn init(&mut self, ctx: &mut Ctx<'_>) {
        self.schedule_next_arrival(ctx);
        self.publish_power(ctx);
    }

    fn react(&mut self, ctx: &mut Ctx<'_>) {
        // 1. new arrivals -> send the execution request to the LEM
        if ctx.triggered(self.arrival) {
            let spec = self.trace.tasks()[self.next_arrival];
            self.next_arrival += 1;
            ctx.fifo_push(self.ports.requests, TaskRequest { spec })
                .unwrap_or_else(|_| panic!("request fifo overflow"));
            self.schedule_next_arrival(ctx);
        }
        // 2. settle execution progress against the current PSM state
        self.settle_execution(ctx);
        // 3. accept a grant if idle
        if self.current.is_none() {
            if let Some(grant) = ctx.fifo_pop(self.ports.grants) {
                let cycles = grant.spec.instructions as f64 * grant.spec.mix.average_cpi();
                self.current = Some(Exec {
                    spec: grant.spec,
                    remaining_cycles: cycles,
                    speed_hz: 0.0,
                    last_update: ctx.now(),
                    granted_at: ctx.now(),
                });
                self.settle_execution(ctx);
            }
        }
        // 4. publish power for the monitors
        self.publish_power(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpm_battery::BatteryClass;
    use dpm_core::AlwaysOnController;
    use dpm_core::LemPorts;
    use dpm_core::Psm;
    use dpm_power::{InstructionMix, TransitionTable};
    use dpm_thermal::ThermalClass;
    use dpm_workload::{Priority, TaskId};

    fn trace(arrivals_us: &[u64], instr: u64) -> TaskTrace {
        arrivals_us
            .iter()
            .enumerate()
            .map(|(i, us)| {
                TaskSpec::new(
                    TaskId(i as u64),
                    SimTime::from_micros(*us),
                    instr,
                    InstructionMix::default(),
                    Priority::Medium,
                )
            })
            .collect()
    }

    struct Rig {
        sim: Simulation,
        ip: ProcessId,
        done: Signal<u64>,
        power: Signal<f64>,
    }

    fn rig(trace: TaskTrace) -> Rig {
        let mut sim = Simulation::new();
        let model = IpPowerModel::default_cpu();
        let table = TransitionTable::for_model(&model);
        let (psm_ports, _) = Psm::spawn(&mut sim, "psm", table, PowerState::On1);
        let requests = sim.fifo("requests", 64);
        let grants = sim.fifo("grants", 64);
        let done_count = sim.signal("done_count", 0u64);
        let power = sim.signal("ip.power", 0.0f64);
        let battery_class = sim.signal("bc", BatteryClass::Full);
        let battery_soc = sim.signal("bs", 1.0f64);
        let temp_class = sim.signal("tc", ThermalClass::Low);
        let temp_c = sim.signal("t", 30.0f64);
        let lem_ports = LemPorts {
            requests,
            grants,
            done_count,
            psm_cmd: psm_ports.cmd,
            psm_state: psm_ports.state,
            psm_busy: psm_ports.busy,
            battery_class,
            battery_soc,
            temp_class,
            temp_c,
            gem: None,
        };
        AlwaysOnController::spawn(&mut sim, "ctrl", lem_ports);
        let ip_ports = IpPorts {
            requests,
            grants,
            done_count,
            psm_state: psm_ports.state,
            psm_busy: psm_ports.busy,
            power,
        };
        let ip = IpBlock::spawn(&mut sim, "ip", model, &trace, ip_ports);
        Rig {
            sim,
            ip,
            done: done_count,
            power,
        }
    }

    #[test]
    fn executes_whole_trace_with_correct_latency() {
        let mut r = rig(trace(&[100, 1000, 2000], 50_000));
        r.sim.run_until(SimTime::from_millis(10));
        assert_eq!(r.sim.peek(r.done), 3);
        let records = r
            .sim
            .with_process::<IpBlock, _>(r.ip, |ip| ip.records().to_vec());
        let exec = IpPowerModel::default_cpu()
            .execution_time(50_000, &InstructionMix::default(), PowerState::On1)
            .unwrap();
        for rec in &records {
            // back-to-back: latency == execution time (within grant deltas)
            assert!(
                rec.latency() <= exec + SimDuration::from_micros(1),
                "latency {} vs exec {exec}",
                rec.latency()
            );
        }
    }

    #[test]
    fn publishes_active_power_while_running() {
        let mut r = rig(trace(&[100], 200_000));
        // mid-task: active power
        r.sim.run_until(SimTime::from_micros(500));
        let p_active = r.sim.peek(r.power);
        let model = IpPowerModel::default_cpu();
        let expect = model.mix_power(PowerState::On1, &InstructionMix::default());
        assert!((p_active - expect.as_watts()).abs() < 1e-9, "{p_active}");
        // after completion: idle power
        r.sim.run_until(SimTime::from_millis(5));
        let p_idle = r.sim.peek(r.power);
        assert!((p_idle - model.idle_power(PowerState::On1).as_watts()).abs() < 1e-9);
        assert!(p_idle < p_active);
    }

    #[test]
    fn meter_accumulates_energy() {
        let mut r = rig(trace(&[100], 100_000));
        let horizon = SimTime::from_millis(2);
        r.sim.run_until(horizon);
        let total = r
            .sim
            .with_process_mut::<IpBlock, _>(r.ip, |ip| ip.finish_meter(horizon));
        assert!(total > Energy::ZERO);
        // rough cross-check: at most horizon × active power
        let model = IpPowerModel::default_cpu();
        let upper = model.mix_power(PowerState::On1, &InstructionMix::default())
            * SimDuration::from_millis(2);
        assert!(total <= upper);
    }

    #[test]
    fn queued_arrivals_wait_for_grants() {
        // three tasks arrive together; controller grants serially
        let mut r = rig(trace(&[100, 100, 100], 50_000));
        r.sim.run_until(SimTime::from_millis(10));
        assert_eq!(r.sim.peek(r.done), 3);
        let records = r
            .sim
            .with_process::<IpBlock, _>(r.ip, |ip| ip.records().to_vec());
        // completion order == id order, each later than the previous
        assert!(records
            .windows(2)
            .all(|w| w[0].finished_at < w[1].finished_at));
    }
}
