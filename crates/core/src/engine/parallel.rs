//! Domain-partitioned parallel execution of the event engine.
//!
//! The sequential engine is one event queue over shared mutable state. This
//! module splits that state along the topology's [`chiplet_topology::Domain`]
//! partition — one domain per compute chiplet, one for the I/O die, one for
//! the memory side — and runs each domain's events on its own shard through a
//! [`DomainScheduler`], synchronizing at nanosecond batches:
//!
//! * every capacity point, core slot, limiter and RNG stream is touched by
//!   exactly one domain (validated at startup; violations fall back to the
//!   sequential path), so same-nanosecond events in different domains never
//!   interact — event timestamps are integral and every admission's service
//!   time is strictly positive, which makes every cross-domain event edge at
//!   least one nanosecond long;
//! * per-flow counters and histograms are sharded and merged exactly at the
//!   end (all-integer accumulators), so the merged telemetry is the
//!   sequential telemetry;
//! * at each batch barrier the scheduler replays the batch single-threaded by
//!   sequence number alone, reconstructing the exact event order — and
//!   therefore the exact output bytes — of the single-queue engine,
//!   independent of worker count or scheduling jitter.
//!
//! Only configurations whose event dynamics are provably domain-local run
//! here: the hardware-default policy, no telemetry attachments, and
//! unthrottled sequential-pattern core flows (no RNG draws outside the memory
//! domain, no pacing, no demand schedules, no NIC DMA). Everything else —
//! and every `workers = 1` run — takes the sequential loop, byte-identical
//! by construction.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex};

use chiplet_fabric::{Dir, DirectionalChannel, SlotLimiter};
use chiplet_mem::{DramServiceModel, OpKind, Pattern};
use chiplet_sim::time::ceil_to_u64;
use chiplet_sim::{DetRng, DomainScheduler, EventLog, LoggedPush, SimDuration, SimTime};
use chiplet_topology::{Domain, LinkId};

use super::plan::{Stage, StageRef};
use super::{CoreState, Engine, EngineConfig, FlowHot, PlanInfo, Txn, LINE};

/// Worker-count override: `CHIPLET_ENGINE_WORKERS=N` takes precedence over
/// [`EngineConfig::workers`] — the CI determinism jobs use it to re-run
/// committed scenarios in parallel without touching their specs.
pub(super) fn requested_workers(cfg: &EngineConfig) -> usize {
    std::env::var("CHIPLET_ENGINE_WORKERS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or(cfg.workers)
        .max(1)
}

/// `CHIPLET_ENGINE_FORCE_PARALLEL=1` exercises the batch machinery even when
/// only one hardware thread is available (the inline executor): determinism
/// tests use it so single-CPU hosts still cover the replay path.
pub(super) fn force_parallel() -> bool {
    std::env::var("CHIPLET_ENGINE_FORCE_PARALLEL").is_ok_and(|v| v != "0")
}

/// Test probe: how many runs actually took the parallel path (the
/// byte-identity tests assert coverage, not just agreement).
#[cfg(test)]
static PARALLEL_RUNS: AtomicU64 = AtomicU64::new(0);

impl Engine<'_> {
    /// Why this run's dynamics are *not* provably domain-local — `None`
    /// means the parallel path is sound. Ineligible runs take the
    /// sequential loop — byte-identical anyway, just not parallel — and
    /// the caller records the downgrade loudly (see
    /// [`super::RunResult::parallel_fallback`]) instead of hiding it.
    pub(super) fn parallel_ineligible_reason(&self) -> Option<&'static str> {
        use crate::traffic::TrafficPolicy;
        if self.cfg.policy != TrafficPolicy::HardwareDefault {
            return Some("policy");
        }
        // Telemetry attachments observe admissions in global event order.
        if self.cfg.profile {
            return Some("profiler");
        }
        if self.cfg.profile_phases {
            return Some("phase_profiler");
        }
        if self.cfg.trace_window.is_some() {
            return Some("trace_window");
        }
        if self.cfg.trace_sampling.is_some() {
            return Some("trace_sampling");
        }
        if self.cfg.metrics_window.is_some() {
            return Some("metrics");
        }
        for (f, hot) in self.flows.iter().zip(&self.flow_hot) {
            // Demand re-pacing touches issuers across chiplets at once.
            if f.spec.demand.is_some() {
                return Some("paced_flow");
            }
            if !f.outcome.is_fabric_bound() && f.spec.nic.is_none() {
                continue; // analytic flow: issues no events
            }
            // NIC DMA issuers live outside the chiplet partition; temporal
            // writes alternate directions; pacing and random targeting draw
            // from the shared RNG on issue (a CCD-domain draw).
            if f.spec.nic.is_some() {
                return Some("nic_dma");
            }
            if hot.op == OpKind::WriteTemporal {
                return Some("temporal_write");
            }
            if hot.gap_mean_ns != 0.0 {
                return Some("paced_issue");
            }
            if matches!(hot.pattern, Pattern::Random) {
                return Some("random_pattern");
            }
            // Every stage must sit behind a capped server in the flow's
            // direction: an uncapped direction admits with zero service,
            // which would let an event hop domains within one nanosecond.
            let dir = if hot.op.is_write() {
                Dir::Write
            } else {
                Dir::Read
            };
            for p in &f.plans {
                for s in &p.stages {
                    if self.capacity_of(s.point, dir).is_none() {
                        return Some("uncapped_stage");
                    }
                }
            }
        }
        None
    }
}

/// The event vocabulary of the parallel engine. Unlike the sequential
/// [`super::Event`], stage-walk events carry the transaction *inline*: a
/// transaction's record travels with it across domain boundaries, and only
/// limiter-parked transactions occupy a slab slot (in their issuing CCD's
/// shard, referenced by the slot id a [`PEvent::Granted`] wake carries).
#[derive(Debug, Clone, Copy)]
enum PEvent {
    Issue { core: u32 },
    Stage { txn: Txn },
    Granted { slot: u32 },
    Complete { txn: Txn },
}

/// Immutable context shared by every domain: the flattened plan tables,
/// event-routing maps, and device models. Owned copies — cheap, and they
/// keep the worker threads free of borrows into the engine.
struct Shared {
    plan_infos: Vec<PlanInfo>,
    flat_stages: Vec<Stage>,
    /// Destination domain of `Stage` events, per flat stage index.
    stage_domain: Vec<u32>,
    /// Destination domain of `Issue`/`Complete` events, per issuer slot
    /// (`u32::MAX` for slots no eligible flow issues from).
    core_domain: Vec<u32>,
    dram_model: DramServiceModel,
    cxl_model: DramServiceModel,
    horizon_ns: f64,
    warmup_ns: f64,
    matrix_cols: usize,
}

impl Shared {
    fn stage_dest(&self, txn: &Txn) -> u32 {
        let base = self.plan_infos[txn.plan as usize].stage_base;
        self.stage_domain[(base + txn.stage as u32) as usize]
    }
}

/// One domain's shard of the engine state. Full-length clones of the
/// per-resource tables — each domain only ever touches the entries it owns,
/// so indices stay global and the merge takes whole structures from their
/// owner (channels, cores, RNG) or sums exact accumulators (flow counters,
/// histograms, the traffic matrix).
struct DomainState {
    cores: Vec<CoreState>,
    flow_hot: Vec<FlowHot>,
    /// Limiter-parked transactions only; the stage walk carries its
    /// transaction inline.
    txns: Vec<Txn>,
    free_txns: Vec<u32>,
    channels: Vec<Option<DirectionalChannel>>,
    noc: Vec<DirectionalChannel>,
    cxl_ports: Vec<DirectionalChannel>,
    ccx_limiters: Vec<SlotLimiter<u32>>,
    ccd_limiters: Option<Vec<SlotLimiter<u32>>>,
    matrix: Vec<u64>,
    rng: DetRng,
}

impl DomainState {
    fn fork(e: &Engine<'_>) -> Self {
        DomainState {
            cores: e.cores.clone(),
            flow_hot: e.flow_hot.clone(),
            txns: Vec::new(),
            free_txns: Vec::new(),
            channels: e.channels.clone(),
            noc: e.noc.clone(),
            cxl_ports: e.cxl_ports.clone(),
            ccx_limiters: e.ccx_limiters.clone(),
            ccd_limiters: e.ccd_limiters.clone(),
            matrix: e.matrix.clone(),
            rng: e.rng.clone(),
        }
    }

    /// The out-of-band analog of the sequential `ResetStats` event.
    fn reset_stats(&mut self) {
        for ch in self.channels.iter_mut().flatten() {
            ch.reset_stats();
        }
        for ch in &mut self.noc {
            ch.reset_stats();
        }
        for ch in &mut self.cxl_ports {
            ch.reset_stats();
        }
    }

    fn alloc_txn(&mut self, txn: Txn) -> u32 {
        match self.free_txns.pop() {
            Some(id) => {
                self.txns[id as usize] = txn;
                id
            }
            None => {
                self.txns.push(txn);
                (self.txns.len() - 1) as u32
            }
        }
    }

    /// Removes a parked transaction from the slab, returning it by value
    /// for the inline stage walk.
    fn take_txn(&mut self, slot: u32) -> Txn {
        self.free_txns.push(slot);
        let t = &mut self.txns[slot as usize];
        t.live = false;
        std::mem::replace(
            t,
            Txn {
                flow: 0,
                core: 0,
                plan: 0,
                issue_ns: 0.0,
                waits_ns: 0.0,
                extra_ns: 0.0,
                stage: 0,
                limiter_phase: 0,
                dir_write: false,
                live: false,
                span: u32::MAX,
            },
        )
    }
}

/// Per-event push recorder: same-nanosecond pushes join the executing
/// domain's local FIFO (they *must* be domain-local — asserted), strictly
/// later pushes are logged for the barrier replay to sequence and deliver.
struct Emitter<'a> {
    domain: u32,
    batch_t: u64,
    log: EventLog<PEvent>,
    fifo: &'a mut VecDeque<PEvent>,
}

impl Emitter<'_> {
    /// The parallel analog of `Engine::schedule_at`: identical rounding, so
    /// every event lands on the same integral nanosecond it would have in
    /// the sequential engine.
    fn schedule_at(&mut self, ns: f64, now_ns: f64, dest: u32, ev: PEvent) {
        let at = ceil_to_u64(ns.max(now_ns));
        if at <= self.batch_t {
            assert_eq!(
                dest, self.domain,
                "same-nanosecond events must stay domain-local"
            );
            self.fifo.push_back(ev);
            self.log.push(LoggedPush::Local);
        } else {
            self.log.push(LoggedPush::Future {
                domain: dest,
                at: SimTime::from_nanos(at),
                payload: ev,
            });
        }
    }
}

/// One domain's reusable batch workspace: the coordinator drains the
/// domain's lane into `drained` before the barrier; the domain executor
/// fills `seqs`/`logs`; the coordinator collects them for the replay.
#[derive(Default)]
struct WorkSlot {
    drained: Vec<(u64, PEvent)>,
    seqs: Vec<u64>,
    logs: Vec<EventLog<PEvent>>,
    fifo: VecDeque<PEvent>,
}

/// Runs `engine` to `horizon` on the domain-partitioned path with `threads`
/// worker threads. Returns `false` — engine untouched — when the
/// topology's stage routing cannot be made domain-local, in which case the
/// caller falls back to the sequential loop.
pub(super) fn run_parallel(engine: &mut Engine<'_>, horizon: SimTime, threads: usize) -> bool {
    let part = engine.topo.partition();
    let ccd_total = part.ccd_total();
    let iod = Domain::Iod.index(ccd_total) as u32;
    let mem = Domain::Memory.index(ccd_total) as u32;
    let n_domains = part.domain_count();
    // The batch window is the 1 ns event quantum; the partition's cut
    // analysis guarantees that window is conservative for every boundary.
    assert!(part.lookahead_ns() >= chiplet_topology::EVENT_QUANTUM_NS);

    // Route stages: device stages (UMC channels, the CXL P-Link aggregate)
    // all run in the memory domain — that keeps every engine RNG draw in
    // one domain — other links go to their partition owner, and the NoC
    // and CXL ingress ports sit on the I/O die.
    let stage_domain: Vec<u32> = engine
        .flat_stages
        .iter()
        .map(|s| {
            if s.device {
                return mem;
            }
            match s.point {
                StageRef::Link(l) => part.link_owner(LinkId(l)).index(ccd_total) as u32,
                StageRef::SocketNoc(_) => iod,
                StageRef::CxlPort(_) => iod,
            }
        })
        .collect();

    let mut core_domain = vec![u32::MAX; engine.cores.len()];
    for c in 0..engine.topo.core_count() {
        core_domain[c as usize] = engine.topo.ccd_of_core(chiplet_topology::CoreId(c)).0;
    }

    // Validate single-domain ownership of every capacity point an eligible
    // flow touches, and that each plan's first stage lives in its issuing
    // chiplet (the limiter-exit `Stage` push is same-nanosecond local). A
    // platform that breaks either (e.g. the monolithic baseline's uncapped
    // chiplet egress) falls back to the sequential loop.
    let mut chan_owner: Vec<u32> = (0..engine.channels.len())
        .map(|l| part.link_owner(LinkId(l as u32)).index(ccd_total) as u32)
        .collect();
    for (f, hot) in engine.flows.iter().zip(&engine.flow_hot) {
        if !f.outcome.is_fabric_bound() {
            continue;
        }
        let base = hot.plan_base as usize;
        for (pi_idx, _) in f.plans.iter().enumerate() {
            let pi = &engine.plan_infos[base + pi_idx];
            if stage_domain[pi.stage_base as usize] != pi.ccd {
                return false;
            }
            for s in 0..pi.n_stages as usize {
                let d = stage_domain[pi.stage_base as usize + s];
                if let StageRef::Link(l) = engine.flat_stages[pi.stage_base as usize + s].point {
                    if chan_owner[l as usize] != d {
                        // A device stage re-homed the link to the memory
                        // domain; every user must agree.
                        if engine.flat_stages[pi.stage_base as usize + s].device
                            && chan_owner[l as usize]
                                == part.link_owner(LinkId(l)).index(ccd_total) as u32
                        {
                            chan_owner[l as usize] = d;
                        } else {
                            return false;
                        }
                    }
                }
            }
        }
    }

    let shared = Shared {
        plan_infos: engine.plan_infos.clone(),
        flat_stages: engine.flat_stages.clone(),
        stage_domain,
        core_domain,
        dram_model: engine.dram_model,
        cxl_model: engine.cxl_model,
        horizon_ns: engine.horizon_ns,
        warmup_ns: engine.warmup_ns,
        matrix_cols: engine.matrix_cols,
    };

    // Seed the issue loops exactly as the sequential engine does (flow
    // order, then issuer order), so the seeded sequence numbers give the
    // same relative order. `ResetStats` is handled out of band at the
    // warmup boundary instead of holding a sequence number; dropping it
    // shifts every later sequence number by one but changes no ordering.
    let mut sched: DomainScheduler<PEvent> = DomainScheduler::new(n_domains);
    for fi in 0..engine.flows.len() {
        if !engine.flows[fi].outcome.is_fabric_bound() {
            continue;
        }
        let start = engine.flows[fi].spec.start.min(horizon);
        for ci in 0..engine.flows[fi].spec.cores.len() {
            let core = engine.flows[fi].spec.cores[ci].0;
            engine.cores[core as usize].attempt_scheduled = true;
            sched.push(
                shared.core_domain[core as usize] as usize,
                start,
                PEvent::Issue { core },
            );
        }
    }

    let mut states: Vec<DomainState> = (0..n_domains).map(|_| DomainState::fork(engine)).collect();

    #[cfg(test)]
    PARALLEL_RUNS.fetch_add(1, Ordering::SeqCst);

    run_threaded(
        &mut sched,
        &mut states,
        &shared,
        engine.cfg.warmup,
        threads.max(1),
    );

    merge_back(
        engine,
        states,
        &shared,
        &chan_owner,
        iod as usize,
        mem as usize,
    );
    true
}

/// Threaded batch executor: persistent scoped workers, two barriers per
/// batch. The coordinator owns the scheduler — it drains lanes into the
/// per-domain slots, releases the workers, waits for the batch, then
/// replays the logs. Domains are striped over workers round-robin.
fn run_threaded(
    sched: &mut DomainScheduler<PEvent>,
    states: &mut Vec<DomainState>,
    shared: &Shared,
    warmup: SimDuration,
    threads: usize,
) {
    let n = states.len();
    let workers = threads.min(n).max(1);
    let state_cells: Vec<Mutex<DomainState>> = states.drain(..).map(Mutex::new).collect();
    let slot_cells: Vec<Mutex<WorkSlot>> =
        (0..n).map(|_| Mutex::new(WorkSlot::default())).collect();
    let batch_t = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let barrier = Barrier::new(workers + 1);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let (state_cells, slot_cells) = (&state_cells, &slot_cells);
            let (batch_t, done, barrier) = (&batch_t, &done, &barrier);
            scope.spawn(move || loop {
                barrier.wait();
                if done.load(Ordering::SeqCst) {
                    break;
                }
                let tn = batch_t.load(Ordering::SeqCst);
                for d in (w..n).step_by(workers) {
                    // Uncontended: the coordinator only touches these
                    // between barriers, and each domain has one worker.
                    let mut st = state_cells[d].lock().unwrap();
                    let mut slot = slot_cells[d].lock().unwrap();
                    execute_batch(&mut st, shared, d as u32, tn, &mut slot);
                }
                barrier.wait();
            });
        }

        let mut slots: Vec<WorkSlot> = (0..n).map(|_| WorkSlot::default()).collect();
        let mut reset_done = false;
        let warmup_t = warmup.as_nanos();
        while let Some(t) = sched.next_batch_time() {
            let tn = t.as_nanos();
            if !reset_done && tn >= warmup_t {
                for st in &state_cells {
                    st.lock().unwrap().reset_stats();
                }
                reset_done = true;
            }
            for (d, cell) in slot_cells.iter().enumerate() {
                let mut slot = cell.lock().unwrap();
                DomainScheduler::drain_lane_at(&mut sched.lanes_mut()[d], t, &mut slot.drained);
            }
            batch_t.store(tn, Ordering::SeqCst);
            barrier.wait(); // release the workers into the batch
            barrier.wait(); // batch complete
            for (d, cell) in slot_cells.iter().enumerate() {
                let mut slot = cell.lock().unwrap();
                std::mem::swap(&mut *slot, &mut slots[d]);
            }
            commit(sched, &mut slots);
            for (d, cell) in slot_cells.iter().enumerate() {
                let mut slot = cell.lock().unwrap();
                std::mem::swap(&mut *slot, &mut slots[d]);
            }
        }
        if !reset_done {
            for st in &state_cells {
                st.lock().unwrap().reset_stats();
            }
        }
        done.store(true, Ordering::SeqCst);
        barrier.wait();
    });

    states.extend(state_cells.into_iter().map(|c| c.into_inner().unwrap()));
}

/// Replays the batch through the scheduler and clears the slots.
fn commit(sched: &mut DomainScheduler<PEvent>, slots: &mut [WorkSlot]) {
    let batch_seqs: Vec<Vec<u64>> = slots
        .iter_mut()
        .map(|s| std::mem::take(&mut s.seqs))
        .collect();
    let logs: Vec<Vec<EventLog<PEvent>>> = slots
        .iter_mut()
        .map(|s| std::mem::take(&mut s.logs))
        .collect();
    sched.commit_batch(&batch_seqs, logs);
}

/// Executes one domain's slice of a batch: drained events in ascending
/// sequence order, then same-nanosecond local children FIFO to exhaustion,
/// logging every push for the barrier replay.
fn execute_batch(st: &mut DomainState, sh: &Shared, domain: u32, tn: u64, slot: &mut WorkSlot) {
    let now_ns = tn as f64;
    let mut fifo = std::mem::take(&mut slot.fifo);
    for (seq, ev) in slot.drained.drain(..) {
        slot.seqs.push(seq);
        fifo.push_back(ev);
    }
    while let Some(ev) = fifo.pop_front() {
        let mut em = Emitter {
            domain,
            batch_t: tn,
            log: Vec::new(),
            fifo: &mut fifo,
        };
        match ev {
            PEvent::Issue { core } => on_issue(st, sh, &mut em, core, now_ns),
            PEvent::Stage { txn } => on_stage(st, sh, &mut em, txn, now_ns),
            PEvent::Granted { slot } => on_granted(st, sh, &mut em, slot, now_ns),
            PEvent::Complete { txn } => on_complete(st, sh, &mut em, txn, now_ns),
        }
        slot.logs.push(em.log);
    }
    slot.fifo = fifo;
}

// ---------------------------------------------------------------------------
// Event handlers: transliterations of the sequential handlers restricted to
// the eligible configuration space (hardware-default policy, unthrottled
// sequential-pattern core flows, no telemetry attachments). Push order
// within each handler matches the sequential engine exactly — that order is
// what the barrier replay turns back into global sequence numbers.
// ---------------------------------------------------------------------------

fn on_issue(st: &mut DomainState, sh: &Shared, em: &mut Emitter<'_>, core: u32, now_ns: f64) {
    let cs_flow = {
        let cs = &mut st.cores[core as usize];
        cs.attempt_scheduled = false;
        cs.flow
    };
    let Some(fi) = cs_flow else { return };
    let fiu = fi as usize;
    if now_ns >= st.flow_hot[fiu].stop_ns {
        return;
    }

    // Pacing gate: eligible flows are unthrottled, so `next_allowed_ns`
    // only ever lags `now`; the branch is kept for structural parity.
    let next_allowed = st.cores[core as usize].next_allowed_ns;
    if next_allowed > now_ns + 0.5 {
        st.cores[core as usize].attempt_scheduled = true;
        let at = if next_allowed.is_finite() {
            next_allowed
        } else {
            sh.horizon_ns
        };
        let dest = sh.core_domain[core as usize];
        em.schedule_at(at, now_ns, dest, PEvent::Issue { core });
        return;
    }

    // Eligibility excludes temporal writes: direction is fixed per flow.
    let is_write = st.flow_hot[fiu].op == OpKind::WriteNonTemporal;
    {
        let f = &st.flow_hot[fiu];
        let cs = &st.cores[core as usize];
        let core_full = if is_write {
            cs.write_used >= cs.write_cap
        } else {
            cs.read_used >= cs.read_cap
        };
        if core_full {
            st.cores[core as usize].blocked_on_core = true;
            return;
        }
        // For unthrottled flows the per-core caps bound the flow's
        // in-flight count below `budget_max`, so this shard-local check
        // matches the sequential global one: both are always false.
        if f.in_flight >= f.budget_max {
            st.flow_hot[fiu].budget_blocked.push(core);
            return;
        }
    }

    {
        let cs = &mut st.cores[core as usize];
        if is_write {
            cs.write_used += 1;
        } else {
            cs.read_used += 1;
        }
    }
    let plan_idx = {
        let f = &mut st.flow_hot[fiu];
        f.in_flight += 1;
        f.issued += 1;
        let cs = &mut st.cores[core as usize];
        // Eligibility excludes Pattern::Random: no RNG draw here.
        let t = cs.next_target % f.targets as u64;
        cs.next_target += 1;
        f.plan_base + cs.core_pos * f.targets + t as u32
    };
    let txn = Txn {
        flow: fi,
        core,
        plan: plan_idx,
        issue_ns: now_ns,
        waits_ns: 0.0,
        extra_ns: 0.0,
        stage: 0,
        limiter_phase: 0,
        dir_write: is_write,
        live: true,
        span: u32::MAX,
    };

    // Unthrottled (gap 0): the next attempt lands at `now`, exactly as the
    // sequential pacing arithmetic degenerates to.
    st.cores[core as usize].next_allowed_ns = now_ns;
    st.cores[core as usize].attempt_scheduled = true;
    let dest = sh.core_domain[core as usize];
    em.schedule_at(now_ns, now_ns, dest, PEvent::Issue { core });

    let slot = st.alloc_txn(txn);
    advance_limiters(st, sh, em, slot, now_ns);
}

/// Walks the limiter phases; parks in a limiter queue when full. On exit
/// the transaction leaves the slab and starts its stage walk inline.
fn advance_limiters(
    st: &mut DomainState,
    sh: &Shared,
    em: &mut Emitter<'_>,
    slot: u32,
    now_ns: f64,
) {
    if !sh.plan_infos[st.txns[slot as usize].plan as usize].limiters {
        st.txns[slot as usize].limiter_phase = 2;
    }
    loop {
        let (phase, ccx, ccd) = {
            let t = &st.txns[slot as usize];
            let p = &sh.plan_infos[t.plan as usize];
            (t.limiter_phase, p.ccx, p.ccd)
        };
        match phase {
            0 => {
                if st.ccx_limiters[ccx as usize].acquire(slot) {
                    st.txns[slot as usize].limiter_phase = 1;
                } else {
                    return; // parked at CCX
                }
            }
            1 => {
                if let Some(lims) = st.ccd_limiters.as_mut() {
                    if lims[ccd as usize].acquire(slot) {
                        st.txns[slot as usize].limiter_phase = 2;
                    } else {
                        return; // parked at CCD
                    }
                } else {
                    st.txns[slot as usize].limiter_phase = 2;
                }
            }
            _ => {
                let mut txn = st.take_txn(slot);
                txn.live = true;
                txn.waits_ns += now_ns - txn.issue_ns;
                let dest = sh.stage_dest(&txn);
                em.schedule_at(now_ns, now_ns, dest, PEvent::Stage { txn });
                return;
            }
        }
    }
}

fn on_granted(st: &mut DomainState, sh: &Shared, em: &mut Emitter<'_>, slot: u32, now_ns: f64) {
    debug_assert!(st.txns[slot as usize].live);
    st.txns[slot as usize].limiter_phase += 1;
    advance_limiters(st, sh, em, slot, now_ns);
}

fn on_stage(st: &mut DomainState, sh: &Shared, em: &mut Emitter<'_>, mut txn: Txn, now_ns: f64) {
    let dir = if txn.dir_write { Dir::Write } else { Dir::Read };
    let p = sh.plan_infos[txn.plan as usize];
    let s = sh.flat_stages[(p.stage_base + txn.stage as u32) as usize];
    // Device variability draws happen only in the memory domain — the one
    // place the simulation RNG advances — in that domain's execution
    // order, which the replay makes equal to the sequential order.
    let extra = if s.device {
        let model = if p.is_cxl {
            sh.cxl_model
        } else {
            sh.dram_model
        };
        model.extra_service_ns(&mut st.rng)
    } else {
        0.0
    };
    let adm = match s.point {
        StageRef::Link(l) => st.channels[l as usize]
            .as_mut()
            .expect("stage link has a channel")
            .admit(dir, now_ns, s.bytes),
        StageRef::SocketNoc(sk) => st.noc[sk as usize].admit(dir, now_ns, s.bytes),
        StageRef::CxlPort(c) => st.cxl_ports[c as usize].admit(dir, now_ns, s.bytes),
    };
    txn.waits_ns += adm.wait_ns;
    txn.extra_ns += extra;
    if (txn.stage as usize) + 1 < p.n_stages as usize {
        txn.stage += 1;
        let dest = sh.stage_dest(&txn);
        em.schedule_at(adm.depart_ns + extra, now_ns, dest, PEvent::Stage { txn });
    } else {
        let done = (txn.issue_ns + p.unloaded_ns + txn.waits_ns + txn.extra_ns).max(adm.depart_ns);
        let dest = sh.core_domain[txn.core as usize];
        em.schedule_at(done, now_ns, dest, PEvent::Complete { txn });
    }
}

fn on_complete(st: &mut DomainState, sh: &Shared, em: &mut Emitter<'_>, txn: Txn, now_ns: f64) {
    let pi = sh.plan_infos[txn.plan as usize];
    let flow = txn.flow as usize;
    let core = txn.core as usize;

    // Release limiters (CCD first — reverse acquisition order); grants
    // wake parked transactions, which live in this same chiplet's shard.
    if pi.limiters {
        if let Some(lims) = st.ccd_limiters.as_mut() {
            if let Some(next) = lims[pi.ccd as usize].release() {
                em.schedule_at(now_ns, now_ns, em.domain, PEvent::Granted { slot: next });
            }
        }
        if let Some(next) = st.ccx_limiters[pi.ccx as usize].release() {
            em.schedule_at(now_ns, now_ns, em.domain, PEvent::Granted { slot: next });
        }
    }

    {
        let cs = &mut st.cores[core];
        if txn.dir_write {
            cs.write_used -= 1;
        } else {
            cs.read_used -= 1;
        }
    }
    st.flow_hot[flow].in_flight -= 1;

    let lat = pi.unloaded_ns + txn.waits_ns + txn.extra_ns;
    {
        let f = &mut st.flow_hot[flow];
        f.win_lat_sum_ns += lat;
        f.win_lat_n += 1;
    }

    if txn.issue_ns >= sh.warmup_ns && now_ns <= sh.horizon_ns {
        // Eligibility excludes temporal writes, so every completion
        // carries payload.
        let f = &mut st.flow_hot[flow];
        f.completed += 1;
        f.bytes += LINE;
        f.latency.record(SimDuration::from_nanos_f64(lat));
        st.matrix[pi.matrix_src as usize * sh.matrix_cols + pi.matrix_dest as usize] += LINE;
    }

    // Wake the issuing core (its slot freed) and one flow-budget waiter.
    if now_ns < st.flow_hot[flow].stop_ns {
        if st.cores[core].blocked_on_core && !st.cores[core].attempt_scheduled {
            st.cores[core].blocked_on_core = false;
            st.cores[core].attempt_scheduled = true;
            let dest = sh.core_domain[core];
            em.schedule_at(now_ns, now_ns, dest, PEvent::Issue { core: txn.core });
        }
        if let Some(waiter) = st.flow_hot[flow].budget_blocked.pop() {
            if !st.cores[waiter as usize].attempt_scheduled {
                st.cores[waiter as usize].attempt_scheduled = true;
                let dest = sh.core_domain[waiter as usize];
                em.schedule_at(now_ns, now_ns, dest, PEvent::Issue { core: waiter });
            }
        }
    }
}

/// Folds the shards back into the engine: owner domains hand their whole
/// structures back (channels, NoC, CXL ports, cores, RNG); sharded
/// accumulators sum exactly — integer counters, the traffic matrix, and
/// the all-integer latency histograms, merged in domain order.
fn merge_back(
    engine: &mut Engine<'_>,
    mut states: Vec<DomainState>,
    sh: &Shared,
    chan_owner: &[u32],
    iod: usize,
    mem: usize,
) {
    for (fi, hot) in engine.flow_hot.iter_mut().enumerate() {
        for st in &states {
            let s = &st.flow_hot[fi];
            hot.issued += s.issued;
            hot.completed += s.completed;
            hot.bytes += s.bytes;
            hot.in_flight += s.in_flight;
            hot.win_lat_sum_ns += s.win_lat_sum_ns;
            hot.win_lat_n += s.win_lat_n;
            hot.latency.merge(&s.latency);
        }
    }
    for st in &states {
        for (m, s) in engine.matrix.iter_mut().zip(&st.matrix) {
            *m += s;
        }
    }
    for (l, &o) in chan_owner.iter().enumerate() {
        engine.channels[l] = states[o as usize].channels[l].take();
    }
    engine.noc = std::mem::take(&mut states[iod].noc);
    engine.cxl_ports = std::mem::take(&mut states[iod].cxl_ports);
    engine.rng = states[mem].rng.clone();
    for (c, &d) in sh.core_domain.iter().enumerate() {
        if d != u32::MAX {
            engine.cores[c] = states[d as usize].cores[c].clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{Engine, EngineConfig};
    use crate::flow::{FlowSpec, Target};
    use chiplet_mem::OpKind;
    use chiplet_sim::{ByteSize, SimTime};
    use chiplet_topology::{CcdId, CoreId, PlatformSpec, Topology};

    /// Runs a flow set at a worker count and returns the serialized
    /// telemetry snapshot — the byte-identity probe. `FORCE_PARALLEL`
    /// makes `workers > 1` spawn real threads even on single-CPU hosts.
    fn run_with_workers(
        topo: &Topology,
        flows: &dyn Fn(&Topology) -> Vec<FlowSpec>,
        cfg: EngineConfig,
        workers: usize,
    ) -> String {
        std::env::set_var("CHIPLET_ENGINE_FORCE_PARALLEL", "1");
        let mut e = Engine::new(topo, cfg.with_workers(workers));
        for f in flows(topo) {
            e.add_flow(f);
        }
        let r = e.run(SimTime::from_micros(10));
        serde_json::to_string(&r.telemetry).expect("telemetry serializes")
    }

    /// Serializes the tests sharing the `PARALLEL_RUNS` coverage counter.
    static COUNTER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn assert_worker_invariant_with(
        topo: &Topology,
        flows: &dyn Fn(&Topology) -> Vec<FlowSpec>,
        expect_parallel: bool,
    ) {
        let _guard = COUNTER_LOCK.lock().unwrap();
        // Default config: DRAM variability on, so the memory-domain RNG
        // ordering is exercised, not just the counters.
        let base = run_with_workers(topo, flows, EngineConfig::default(), 1);
        let before = super::PARALLEL_RUNS.load(std::sync::atomic::Ordering::SeqCst);
        for workers in [2, 4] {
            let par = run_with_workers(topo, flows, EngineConfig::default(), workers);
            assert_eq!(base, par, "workers={workers} diverged from sequential");
        }
        let after = super::PARALLEL_RUNS.load(std::sync::atomic::Ordering::SeqCst);
        let expected = if expect_parallel { 2 } else { 0 };
        assert_eq!(
            after - before,
            expected,
            "unexpected parallel-path coverage"
        );
    }

    fn assert_worker_invariant(topo: &Topology, flows: &dyn Fn(&Topology) -> Vec<FlowSpec>) {
        assert_worker_invariant_with(topo, flows, true);
    }

    #[test]
    fn socket_read_matches_sequential() {
        let topo = Topology::build(&PlatformSpec::epyc_9634());
        assert_worker_invariant(&topo, &|topo| {
            vec![
                FlowSpec::reads("socket", topo.core_ids().collect(), Target::all_dimms(topo))
                    .working_set(ByteSize::from_gib(1))
                    .build(topo),
            ]
        });
    }

    #[test]
    fn mixed_read_write_across_chiplets_matches_sequential() {
        let topo = Topology::build(&PlatformSpec::epyc_7302());
        assert_worker_invariant(&topo, &|topo| {
            let readers: Vec<CoreId> = topo.cores_of_ccd(CcdId(0)).collect();
            let writers: Vec<CoreId> = topo.cores_of_ccd(CcdId(1)).collect();
            vec![
                FlowSpec::reads("readers", readers, Target::all_dimms(topo))
                    .working_set(ByteSize::from_gib(1))
                    .build(topo),
                FlowSpec::reads("writers", writers, Target::all_dimms(topo))
                    .op(OpKind::WriteNonTemporal)
                    .working_set(ByteSize::from_gib(1))
                    .build(topo),
            ]
        });
    }

    #[test]
    fn cxl_flow_matches_sequential() {
        let spec = PlatformSpec::epyc_9634();
        assert!(spec.cxl.is_some(), "9634 platform carries the CXL config");
        let topo = Topology::build(&spec);
        assert_worker_invariant(&topo, &|topo| {
            let ccd0: Vec<CoreId> = topo.cores_of_ccd(CcdId(0)).collect();
            let ccd1: Vec<CoreId> = topo.cores_of_ccd(CcdId(1)).collect();
            vec![
                FlowSpec::reads("cxl", ccd0, Target::Cxl(0))
                    .working_set(ByteSize::from_gib(1))
                    .build(topo),
                FlowSpec::reads("dram", ccd1, Target::all_dimms(topo))
                    .working_set(ByteSize::from_gib(1))
                    .build(topo),
            ]
        });
    }

    #[test]
    fn tracing_config_with_workers_reports_loud_fallback() {
        // The bugfix this pins: tracing made `workers = 4` silently run
        // sequentially. The downgrade must now land in the result, the
        // process-wide log, and (with metrics attached) a volatile counter.
        let topo = Topology::build(&PlatformSpec::epyc_7302());
        let cfg = EngineConfig::default()
            .with_trace_sampling(8)
            .with_workers(4);
        let mut e = Engine::new(&topo, cfg);
        e.add_flow(
            FlowSpec::reads(
                "traced",
                topo.cores_of_ccd(CcdId(0)).collect(),
                Target::all_dimms(&topo),
            )
            .working_set(ByteSize::from_gib(1))
            .build(&topo),
        );
        let r = e.run(SimTime::from_micros(10));
        let fb = r.parallel_fallback.expect("downgrade is recorded");
        assert_eq!(fb.reason, "trace_sampling");
        assert_eq!(fb.requested_workers, 4);
        assert!(
            super::super::take_parallel_fallbacks().contains(&fb),
            "the process-wide log captured the downgrade"
        );
    }

    #[test]
    fn fallback_counter_lands_in_volatile_metrics() {
        let topo = Topology::build(&PlatformSpec::epyc_7302());
        let cfg = EngineConfig::default()
            .with_metrics(chiplet_sim::SimDuration::from_micros(1))
            .with_workers(2);
        let mut e = Engine::new(&topo, cfg);
        e.add_flow(
            FlowSpec::reads(
                "metered",
                topo.cores_of_ccd(CcdId(0)).collect(),
                Target::all_dimms(&topo),
            )
            .working_set(ByteSize::from_gib(1))
            .build(&topo),
        );
        let r = e.run(SimTime::from_micros(10));
        assert_eq!(
            r.parallel_fallback.map(|fb| fb.reason),
            Some("metrics"),
            "metrics attachment downgrades the run"
        );
        let m = r.metrics.expect("metrics were requested");
        assert_eq!(
            m.counter_value("chiplet_engine_fallback", &[("reason", "metrics")]),
            Some(1.0)
        );
        // Volatile: the default (deterministic) dump must not change.
        assert!(!m.to_openmetrics().contains("chiplet_engine_fallback"));
        assert!(m
            .to_openmetrics_with_volatile()
            .contains("chiplet_engine_fallback_total{reason=\"metrics\"}"));
    }

    #[test]
    fn eligible_sequential_run_reports_no_fallback() {
        let topo = Topology::build(&PlatformSpec::epyc_7302());
        let mut e = Engine::new(&topo, EngineConfig::default());
        e.add_flow(
            FlowSpec::reads(
                "plain",
                topo.cores_of_ccd(CcdId(0)).collect(),
                Target::all_dimms(&topo),
            )
            .working_set(ByteSize::from_gib(1))
            .build(&topo),
        );
        let r = e.run(SimTime::from_micros(10));
        assert_eq!(r.parallel_fallback, None, "workers=1 is not a downgrade");
    }

    #[test]
    fn ineligible_config_falls_back_and_still_matches() {
        // A paced (rate-gated) flow is ineligible: `workers = 4` must
        // silently take the sequential loop and produce identical bytes.
        let topo = Topology::build(&PlatformSpec::epyc_7302());
        let flows = |topo: &Topology| {
            vec![FlowSpec::reads(
                "paced",
                topo.cores_of_ccd(CcdId(0)).collect(),
                Target::all_dimms(topo),
            )
            .working_set(ByteSize::from_gib(1))
            .offered(chiplet_sim::Bandwidth::from_gb_per_s(4.0))
            .build(topo)]
        };
        assert_worker_invariant_with(&topo, &flows, false);
    }
}
