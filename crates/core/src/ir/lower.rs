//! Lowering: from typed IR to staged WQEs, with the optimizer in the
//! middle.
//!
//! Lowering happens at `deploy` time, against the live simulator:
//!
//! 1. **Passes** (when enabled): WAIT elision — an own-queue
//!    `WAIT(all signaled so far)` whose successor is not a patch target
//!    collapses into a `wait_prev` fence on that successor (one slot
//!    saved; in a recycled ring the WAIT's FETCH_ADD fix-up disappears
//!    with it); restore merging — contiguous restore-marked slots share
//!    one pristine-image WRITE; const-pool deduplication — identical
//!    resolved constants intern to one cell.
//! 2. **Slot allocation** — every op gets its monotonic WQE index and
//!    ring-slot address (post-pass positions).
//! 3. **Const placement** — SGE tables and WQE images are resolved
//!    against the allocated slots and pushed (interned) into the pool.
//! 4. **Threshold resolution** — WAIT counts and ENABLE horizons become
//!    absolute monotonic counts against live CQ/queue state.
//! 5. **Staging** — [`ChainBuilder`] for linear queues (callers post in
//!    the order deployment requires), [`RecycledLoopBuilder`] for the
//!    ring (head fix-ups, tail WAIT/ENABLE, posting and arming).

use std::cell::RefCell;
use std::rc::Rc;

use rnic_sim::error::{Error, Result};
use rnic_sim::sim::Simulator;
use rnic_sim::verbs::VerbClass;
use rnic_sim::wqe::{WorkRequest, FLAG_SIGNALED, FLAG_WAIT_PREV, ID_MASK, WQE_SIZE};

use super::analysis::Footprint;
use super::verify::PatchMap;
use super::{
    ConstInterner, ConstSpec, DeployOpts, EnableTarget, IrProgram, Kind, Loc, Mode, OpId,
    PassReport, QId, QueueSlot, Resolution, ScatterId, SgeSpec, WaitCond,
};
use crate::builder::{ChainBuilder, Staged, VerbCounts};
use crate::constructs::loops::{FinishOpts, RecycledLoop, RecycledLoopBuilder};
use crate::ctx::ChainQueueBuilder;
use crate::encode::{cond_compare, cond_swap, WqeField};
use crate::program::{ChainQueue, ConstPool};
use rnic_sim::verbs::Opcode;

/// A deployed linear program: staged builders awaiting `post`, in
/// whatever order the emitter's protocol requires (actions before
/// control, responses before triggers, ...).
pub struct LinearLowered {
    builders: Vec<Option<ChainBuilder>>,
    report: PassReport,
    res: Rc<RefCell<Resolution>>,
    footprint: Footprint,
}

impl LinearLowered {
    /// Post one queue's staged chain (doorbell for unmanaged queues).
    pub fn post(&mut self, sim: &mut Simulator, q: QId) -> Result<Vec<Staged>> {
        match self.builders[q.0].take() {
            Some(b) => b.post(sim),
            None => Ok(Vec::new()),
        }
    }

    /// What the optimizer did.
    pub fn report(&self) -> PassReport {
        self.report
    }

    /// Resolved absolute address of `field` of `op`'s WQE slot.
    pub fn addr_of(&self, op: OpId, field: WqeField) -> u64 {
        self.res.borrow().op_slot[op.0].expect("lowered") + field.offset()
    }

    /// A resolved external scatter list (trigger-RECV injection targets).
    pub fn scatter(&self, s: ScatterId) -> Vec<(u64, u32, u32)> {
        self.res.borrow().scatters[s.0].clone().expect("lowered")
    }

    /// The program's non-interference footprint (see
    /// [`analysis::DeploymentVerifier`](super::analysis::DeploymentVerifier)).
    pub fn footprint(&self) -> &Footprint {
        &self.footprint
    }
}

/// A deployed recycled program: posted, armed, running.
pub struct RecycledLowered {
    /// The live ring.
    pub lp: RecycledLoop,
    report: PassReport,
    res: Rc<RefCell<Resolution>>,
    footprint: Footprint,
}

impl RecycledLowered {
    /// What the optimizer did (per round).
    pub fn report(&self) -> PassReport {
        self.report
    }

    /// Resolved absolute address of `field` of `op`'s WQE slot.
    pub fn addr_of(&self, op: OpId, field: WqeField) -> u64 {
        self.res.borrow().op_slot[op.0].expect("lowered") + field.offset()
    }

    /// A resolved external scatter list (trigger-RECV injection targets).
    pub fn scatter(&self, s: ScatterId) -> Vec<(u64, u32, u32)> {
        self.res.borrow().scatters[s.0].clone().expect("lowered")
    }

    /// The program's non-interference footprint (see
    /// [`analysis::DeploymentVerifier`](super::analysis::DeploymentVerifier)).
    pub fn footprint(&self) -> &Footprint {
        &self.footprint
    }
}

/// Result of [`IrProgram::deploy`].
pub enum Lowered {
    /// A linear program (post the builders to launch).
    Linear(LinearLowered),
    /// A recycled ring (already posted and armed).
    Recycled(RecycledLowered),
}

impl Lowered {
    /// What the optimizer did.
    pub fn report(&self) -> PassReport {
        match self {
            Lowered::Linear(l) => l.report(),
            Lowered::Recycled(r) => r.report(),
        }
    }

    /// Resolved address of `field` of `op`'s slot.
    pub fn addr_of(&self, op: OpId, field: WqeField) -> u64 {
        match self {
            Lowered::Linear(l) => l.addr_of(op, field),
            Lowered::Recycled(r) => r.addr_of(op, field),
        }
    }

    /// A resolved external scatter list.
    pub fn scatter(&self, s: ScatterId) -> Vec<(u64, u32, u32)> {
        match self {
            Lowered::Linear(l) => l.scatter(s),
            Lowered::Recycled(r) => r.scatter(s),
        }
    }

    /// The program's non-interference footprint.
    pub fn footprint(&self) -> &Footprint {
        match self {
            Lowered::Linear(l) => l.footprint(),
            Lowered::Recycled(r) => r.footprint(),
        }
    }

    /// The linear variant (panics on a recycled program).
    pub fn into_linear(self) -> LinearLowered {
        match self {
            Lowered::Linear(l) => l,
            Lowered::Recycled(_) => panic!("expected a linear lowering"),
        }
    }

    /// The recycled variant (panics on a linear program).
    pub fn into_recycled(self) -> RecycledLowered {
        match self {
            Lowered::Recycled(r) => r,
            Lowered::Linear(_) => panic!("expected a recycled lowering"),
        }
    }
}

// ---------------------------------------------------------------------
// Passes
// ---------------------------------------------------------------------

/// WAIT elision: `WAIT(own CQ, all signaled so far)` immediately
/// followed (in queue order) by an op that is **not** a runtime patch
/// target collapses into a `wait_prev` fence on that op. `wait_prev`
/// gates issue on *every* previous WQE of the queue having completed —
/// a strict superset of the WAIT's threshold — so semantics are
/// preserved; patch targets are excluded because their bytes are
/// snapshotted at fetch time, which `wait_prev` (unlike a parked WAIT on
/// a managed queue) does not delay.
fn elide_waits(p: &mut IrProgram, pm: &PatchMap) -> usize {
    // Ops another op's threshold or horizon names (OpDone*, OpsThrough)
    // must survive the pass: eliding one would detach a referenced op
    // and resolution would have no slot for it.
    let mut referenced = vec![false; p.ops.len()];
    for rec in &p.ops {
        if let Some(op) = &rec.op {
            match &op.kind {
                Kind::Wait(WaitCond::OpDonePosted(x))
                | Kind::Wait(WaitCond::OpDoneSignaled(x))
                | Kind::Enable(EnableTarget::OpsThrough(x)) => referenced[x.0] = true,
                _ => {}
            }
        }
    }
    let mut elided = 0;
    for qi in 0..p.queue_ops.len() {
        loop {
            let ops = &p.queue_ops[qi];
            let mut victim: Option<usize> = None;
            for (pos, id) in ops.iter().enumerate() {
                let op = p.op(*id);
                // The WAIT itself must not be a patch target or a named
                // reference either: eliding it would detach an op other
                // ops still name.
                let is_las_wait = matches!(op.kind, Kind::Wait(WaitCond::LocalAllSignaled))
                    && op.bump.is_none()
                    && !op.signaled
                    && !op.restore
                    && !pm.is_target(*id)
                    && !referenced[id.0];
                if !is_las_wait {
                    continue;
                }
                let Some(next) = ops.get(pos + 1) else {
                    continue;
                };
                let next_op = p.op(*next);
                if pm.is_target(*next) || next_op.placeholder.is_some() || next_op.restore {
                    continue;
                }
                victim = Some(pos);
                break;
            }
            match victim {
                Some(pos) => {
                    let next = p.queue_ops[qi][pos + 1];
                    p.ops[next.0].op.as_mut().expect("placed").wait_prev = true;
                    let wait = p.queue_ops[qi].remove(pos);
                    p.ops[wait.0].op = None; // detached
                    elided += 1;
                }
                None => break,
            }
        }
    }
    elided
}

/// Contiguous runs of restore-marked ops, per queue (in queue order).
fn restore_runs(p: &IrProgram, merge: bool) -> Vec<Vec<OpId>> {
    let mut runs: Vec<Vec<OpId>> = Vec::new();
    for ops in &p.queue_ops {
        let mut prev_pos: Option<usize> = None;
        for (pos, id) in ops.iter().enumerate() {
            if !p.op(*id).restore {
                continue;
            }
            let contiguous = merge && pos > 0 && prev_pos == Some(pos - 1);
            if contiguous {
                runs.last_mut().expect("run open").push(*id);
            } else {
                runs.push(vec![*id]);
            }
            prev_pos = Some(pos);
        }
    }
    runs
}

fn count_class(counts: &mut VerbCounts, class: VerbClass) {
    match class {
        VerbClass::Copy => counts.copies += 1,
        VerbClass::Atomic => counts.atomics += 1,
        VerbClass::Ordering => counts.ordering += 1,
    }
}

/// The Table 2 classes a naive (pass-free) lowering of the current op
/// list would stage, including the recycled ring's structural overhead.
fn naive_counts(p: &IrProgram) -> VerbCounts {
    let mut c = VerbCounts::default();
    let mut restores = 0usize;
    let mut fixups = 0usize;
    let mut recycled = false;
    let ring = match p.mode {
        Mode::Recycled { ring } => {
            recycled = true;
            Some(ring)
        }
        Mode::Linear => None,
    };
    for (qi, ops) in p.queue_ops.iter().enumerate() {
        for id in ops {
            let op = p.op(*id);
            count_class(&mut c, op.kind.class());
            if op.restore {
                restores += 1;
            }
            if Some(QId(qi)) == ring
                && (op.bump.is_some() || matches!(op.kind, Kind::Wait(WaitCond::LocalAllSignaled)))
            {
                fixups += 1;
            }
        }
    }
    if recycled {
        c.copies += restores; // one restore WRITE per pristine slot
        c.atomics += 2 + fixups; // head FADDs + per-slot fix-ups
        c.ordering += 2; // tail WAIT + self-ENABLE
    }
    c
}

// ---------------------------------------------------------------------
// Resolution helpers
// ---------------------------------------------------------------------

struct ResolveCtx<'p> {
    p: &'p IrProgram,
    pool_lkey: u32,
    pool_rkey: u32,
    /// Tail-ENABLE slot address + ring keys (recycled only).
    tail: Option<(u64, u32, u32)>,
}

impl<'p> ResolveCtx<'p> {
    fn queue(&self, q: QId) -> &ChainQueue {
        self.p.queues[q.0].bound().expect("queue bound")
    }

    fn loc(&self, res: &Resolution, loc: &Loc, local: bool) -> (u64, u32) {
        match loc {
            Loc::Raw { addr, key } => (*addr, *key),
            Loc::Const { c, off } => (
                res.const_addr[c.0].expect("const placed") + off,
                if local {
                    self.pool_lkey
                } else {
                    self.pool_rkey
                },
            ),
            Loc::Field { op, field, off } => {
                let q = self.queue(self.p.ops[op.0].queue);
                (
                    res.op_slot[op.0].expect("op placed") + field.offset() + off,
                    if local { q.ring.lkey } else { q.ring.rkey },
                )
            }
            Loc::TailEnable { field } => {
                let (slot, lkey, rkey) = self.tail.expect("tail only exists on recycled rings");
                (slot + field.offset(), if local { lkey } else { rkey })
            }
        }
    }

    fn resolve_sges(&self, res: &Resolution, entries: &[SgeSpec]) -> Vec<(u64, u32, u32)> {
        entries
            .iter()
            .map(|e| {
                let (addr, key) = self.loc(res, &e.target, true);
                (addr, key, e.len)
            })
            .collect()
    }

    fn resolve_const(&self, res: &Resolution, spec: &ConstSpec) -> Option<Vec<u8>> {
        match spec {
            ConstSpec::Bytes(b) => Some(b.clone()),
            ConstSpec::Zeroed(_) => None,
            ConstSpec::Sges(entries) => {
                let mut bytes = Vec::with_capacity(entries.len() * 16);
                for (addr, key, len) in self.resolve_sges(res, entries) {
                    bytes.extend_from_slice(
                        &rnic_sim::wqe::Sge {
                            addr,
                            lkey: key,
                            len,
                        }
                        .encode(),
                    );
                }
                Some(bytes)
            }
            ConstSpec::Images(wqes) => {
                let mut bytes = Vec::with_capacity(wqes.len() * WQE_SIZE as usize);
                for w in wqes {
                    let mut enc = w.wr.wqe.encode();
                    for (field, loc) in &w.patches {
                        let local = matches!(field, WqeField::LocalAddr);
                        let (addr, key) = self.loc(res, loc, local);
                        enc[field.offset() as usize..(field.offset() + 8) as usize]
                            .copy_from_slice(&addr.to_le_bytes());
                        // An address patch carries its key: the emitter
                        // cannot know ring keys that only exist after
                        // lowering.
                        let key_off = match field {
                            WqeField::LocalAddr => Some(WqeField::Lkey.offset()),
                            WqeField::RemoteAddr => Some(WqeField::Rkey.offset()),
                            _ => None,
                        };
                        if let Some(off) = key_off {
                            enc[off as usize..off as usize + 4].copy_from_slice(&key.to_le_bytes());
                        }
                    }
                    bytes.extend_from_slice(&enc);
                }
                Some(bytes)
            }
        }
    }

    /// Build the concrete work request for one op (flags and placeholder
    /// transform applied; WAIT/ENABLE counts filled by the caller).
    fn build_wr(&self, res: &Resolution, id: OpId) -> WorkRequest {
        let op = self.p.op(id);
        let mut wr = match &op.kind {
            Kind::Noop => WorkRequest::noop(),
            Kind::Write { src, len, dst, imm } => {
                let (la, lk) = self.loc(res, src, true);
                let (ra, rk) = self.loc(res, dst, false);
                match imm {
                    Some(i) => WorkRequest::write_imm(la, lk, *len, ra, rk, *i),
                    None => WorkRequest::write(la, lk, *len, ra, rk),
                }
            }
            Kind::Read { dst, len, src } => {
                let (la, lk) = self.loc(res, dst, true);
                let (ra, rk) = self.loc(res, src, false);
                WorkRequest::read(la, lk, *len, ra, rk)
            }
            Kind::ReadSgl {
                table,
                entries,
                src,
            } => {
                let table_addr = res.const_addr[table.0].expect("const placed");
                let (ra, rk) = self.loc(res, src, false);
                WorkRequest::read_sgl(table_addr, *entries, ra, rk)
            }
            Kind::Transmute { target, y, into } => {
                let header = res.op_slot[target.0].expect("op placed") + WqeField::Header.offset();
                let rkey = self.queue(self.p.ops[target.0].queue).ring.rkey;
                WorkRequest::cas(header, rkey, cond_compare(*y), cond_swap(*into, *y), 0, 0)
            }
            Kind::CasRaw {
                target,
                compare,
                swap,
            } => {
                let (ra, rk) = self.loc(res, target, false);
                WorkRequest::cas(ra, rk, *compare, *swap, 0, 0)
            }
            Kind::FetchAdd { target, delta } => {
                let (ra, rk) = self.loc(res, target, false);
                WorkRequest::fetch_add(ra, rk, *delta, 0, 0)
            }
            Kind::MaxOf { target, operand } => {
                let (ra, rk) = self.loc(res, target, false);
                WorkRequest::max(ra, rk, *operand)
            }
            // Counts resolved at staging time; placeholders here.
            Kind::Wait(WaitCond::Absolute { cq, count }) => WorkRequest::wait(*cq, *count),
            Kind::Wait(_) => WorkRequest::wait(rnic_sim::ids::CqId(0), 0),
            Kind::Enable(EnableTarget::Foreign { sq, count }) => WorkRequest::enable(*sq, *count),
            Kind::Enable(_) => WorkRequest::enable(rnic_sim::ids::WqId(0), 0),
            Kind::Raw(wr) => *wr,
        };
        if op.signaled {
            wr.wqe.flags |= FLAG_SIGNALED;
        }
        if op.wait_prev {
            wr.wqe.flags |= FLAG_WAIT_PREV;
        }
        if let Some(pid) = op.placeholder {
            wr.wqe.opcode = Opcode::Noop;
            wr.wqe.id = pid & ID_MASK;
        }
        wr
    }
}

// ---------------------------------------------------------------------
// The lowering driver
// ---------------------------------------------------------------------

pub(crate) fn lower(
    p: &mut IrProgram,
    sim: &mut Simulator,
    pool: &mut ConstPool,
    opts: DeployOpts,
    pm: &PatchMap,
    interner: Option<&mut ConstInterner>,
) -> Result<Lowered> {
    let mut report = PassReport {
        before: naive_counts(p),
        ..PassReport::default()
    };
    let pool_used_base = pool.used();
    let pool_leases_base = pool.leases();

    // ---- passes ------------------------------------------------------
    if opts.optimize {
        report.waits_elided = elide_waits(p, pm);
    }
    let runs = restore_runs(p, opts.optimize);
    let n_restore_ops: usize = runs.iter().map(|r| r.len()).sum();
    report.restores_merged = n_restore_ops - runs.len();
    let elide_tail = opts.optimize && !pm.tail_patched;

    // ---- the recycled ring queue (created with exact depth) ----------
    let ring_q = match p.mode {
        Mode::Recycled { ring } => {
            let mut body = 0usize;
            let mut fixups = 0usize;
            for id in &p.queue_ops[ring.0] {
                body += 1;
                let op = p.op(*id);
                if op.bump.is_some() || matches!(op.kind, Kind::Wait(WaitCond::LocalAllSignaled)) {
                    fixups += 1;
                }
            }
            let tail_n = if elide_tail { 1 } else { 2 };
            let depth = 2 + body + runs.len() + fixups + tail_n;
            let QueueSlot::Ring(spec, slot) = &p.queues[ring.0] else {
                unreachable!("mode says ring");
            };
            let mut qb = ChainQueueBuilder::new(spec.node, spec.owner)
                .managed()
                .depth(depth as u32)
                .on_port(spec.port);
            if let Some(pu) = spec.pu {
                qb = qb.on_pu(pu);
            }
            let q = qb.build(sim)?;
            let _ = slot;
            p.queues[ring.0] = QueueSlot::Ring(*spec, Some(q));
            Some((ring, q, depth))
        }
        Mode::Linear => None,
    };

    // ---- slot allocation --------------------------------------------
    let nops = p.ops.len();
    {
        let mut res = p.resolution.borrow_mut();
        res.op_slot = vec![None; nops];
        res.op_index = vec![None; nops];
        res.const_addr = vec![None; p.consts.len()];
        res.scatters = vec![None; p.scatters.len()];
    }
    let mut base_index = vec![0u64; p.queues.len()];
    let mut cq_base = vec![0u64; p.queues.len()];
    for (qi, slot) in p.queues.iter().enumerate() {
        let Some(q) = slot.bound() else {
            return Err(Error::InvalidWr("IR queue not bound"));
        };
        let is_ring = ring_q.map(|(r, ..)| r.0) == Some(qi);
        // The ring reserves two head slots for the tail fix-up FADDs.
        base_index[qi] = if is_ring { 2 } else { sim.sq_posted(q.qp) };
        cq_base[qi] = sim.cq_total(q.cq);
        let mut res = p.resolution.borrow_mut();
        res.node = Some(q.node);
        for (pos, id) in p.queue_ops[qi].iter().enumerate() {
            let index = base_index[qi] + pos as u64;
            res.op_index[id.0] = Some(index);
            res.op_slot[id.0] = Some(q.slot_addr(index));
        }
    }

    // ---- const placement (deduplicated when optimizing) --------------
    let ctx = ResolveCtx {
        p,
        pool_lkey: pool.mr().lkey,
        pool_rkey: pool.mr().rkey,
        tail: ring_q.map(|(_, q, depth)| (q.slot_addr(depth as u64 - 1), q.ring.lkey, q.ring.rkey)),
    };
    let mut local_interner = ConstInterner::new();
    let interner = match interner {
        Some(i) => i,
        None => &mut local_interner,
    };
    let interner_base_saved = interner.saved_bytes;
    for ci in 0..p.consts.len() {
        let resolved = {
            let res = p.resolution.borrow();
            ctx.resolve_const(&res, &p.consts[ci])
        };
        let addr = match resolved {
            Some(bytes) if opts.optimize => interner.intern(sim, pool, &bytes)?,
            Some(bytes) => pool.push_bytes(sim, &bytes)?,
            None => {
                let ConstSpec::Zeroed(len) = &p.consts[ci] else {
                    unreachable!("only zeroed consts resolve to None");
                };
                pool.reserve(sim, *len)?
            }
        };
        p.resolution.borrow_mut().const_addr[ci] = Some(addr);
    }

    // ---- scatter resolution ------------------------------------------
    for (si, entries) in p.scatters.iter().enumerate() {
        let res = p.resolution.borrow();
        let resolved = ctx.resolve_sges(&res, entries);
        drop(res);
        p.resolution.borrow_mut().scatters[si] = Some(resolved);
    }

    // ---- non-interference footprint -----------------------------------
    // Collected unconditionally (cheap: a few spans per op) so fleet and
    // cluster deployment can prove pairwise isolation without replaying
    // the lowering.
    let footprint = {
        let res = p.resolution.borrow();
        super::analysis::interference::collect(p, sim, &res)
    };

    // ---- staging -----------------------------------------------------
    let mut counts_after = VerbCounts::default();
    match ring_q {
        None => {
            // Linear: one ChainBuilder per queue, staged in queue order.
            let mut builders: Vec<Option<ChainBuilder>> = Vec::with_capacity(p.queues.len());
            for slot in &p.queues {
                let QueueSlot::Bound(q) = slot else {
                    unreachable!("linear programs have no ring")
                };
                builders.push(Some(ChainBuilder::new(sim, *q)));
            }
            for (qi, ops) in p.queue_ops.iter().enumerate() {
                for id in ops {
                    let wr = {
                        let res = p.resolution.borrow();
                        let mut wr = ctx.build_wr(&res, *id);
                        fill_counts(
                            p,
                            &res,
                            *id,
                            &mut wr,
                            &cq_base,
                            Some(builders[qi].as_ref().expect("present")),
                        );
                        wr
                    };
                    count_class(&mut counts_after, wr.wqe.opcode.class());
                    let staged = builders[qi].as_mut().expect("present").stage(wr);
                    debug_assert_eq!(
                        Some(staged.slot),
                        p.resolution.borrow().op_slot[id.0],
                        "slot allocation must match the builder"
                    );
                }
            }
            report.after = counts_after;
            report.const_bytes_saved = interner.saved_bytes - interner_base_saved;
            report.pool_high_water = pool.high_water();
            report.pool_bytes_placed = pool.used() - pool_used_base;
            report.pool_leases_taken = pool.leases() - pool_leases_base;
            Ok(Lowered::Linear(LinearLowered {
                builders,
                report,
                res: Rc::clone(&p.resolution),
                footprint,
            }))
        }
        Some((ring, ring_queue, depth)) => {
            // Recycled: stage + post the bound queues first (response
            // rings must exist before the ring's ENABLEs release them),
            // then build the ring through RecycledLoopBuilder.
            for (qi, slot) in p.queues.iter().enumerate() {
                let QueueSlot::Bound(q) = slot else { continue };
                let mut b = ChainBuilder::new(sim, *q);
                for id in &p.queue_ops[qi] {
                    let wr = {
                        let res = p.resolution.borrow();
                        let mut wr = ctx.build_wr(&res, *id);
                        fill_counts(p, &res, *id, &mut wr, &cq_base, Some(&b));
                        wr
                    };
                    count_class(&mut counts_after, wr.wqe.opcode.class());
                    b.stage(wr);
                }
                b.post(sim)?;
            }

            let mut lb = RecycledLoopBuilder::new(sim, ring_queue);
            for id in &p.queue_ops[ring.0] {
                let op = p.op(*id);
                if matches!(op.kind, Kind::Wait(WaitCond::LocalAllSignaled)) {
                    // The ring builder computes (and auto-bumps) the
                    // all-signaled-so-far threshold itself.
                    let rel = lb.stage_wait_all();
                    debug_assert_eq!(
                        Some(ring_queue.slot_addr(rel as u64)),
                        p.resolution.borrow().op_slot[id.0]
                    );
                    continue;
                }
                let wr = {
                    let res = p.resolution.borrow();
                    let mut wr = ctx.build_wr(&res, *id);
                    fill_counts(p, &res, *id, &mut wr, &cq_base, None);
                    wr
                };
                match op.bump {
                    Some(delta) => lb.stage_bumped(wr, delta),
                    None => lb.stage(wr),
                };
            }
            // Restore WRITEs: one per (merged) run of pristine slots.
            for run in &runs {
                let first = run[0];
                let target_q = ctx.queue(p.ops[first.0].queue);
                let mut image = Vec::with_capacity(run.len() * WQE_SIZE as usize);
                {
                    let res = p.resolution.borrow();
                    for id in run {
                        image.extend_from_slice(&ctx.build_wr(&res, *id).wqe.encode());
                    }
                }
                let image_addr = if opts.optimize {
                    interner.intern(sim, pool, &image)?
                } else {
                    pool.push_bytes(sim, &image)?
                };
                let dst = p.resolution.borrow().op_slot[first.0].expect("placed");
                lb.stage(
                    WorkRequest::write(
                        image_addr,
                        pool.mr().lkey,
                        image.len() as u32,
                        dst,
                        target_q.ring.rkey,
                    )
                    .signaled(),
                );
            }
            let lp = lb.finish_with(
                sim,
                pool,
                FinishOpts {
                    elide_tail_wait: elide_tail,
                },
            )?;
            debug_assert_eq!(
                lp.round_len, depth as u64,
                "depth precomputation must match"
            );
            // Per-round cost: the ring's slots plus the bound-queue WQEs
            // (response placeholders re-execute every round too).
            report.after = lp.counts.merge(&counts_after);
            report.const_bytes_saved = interner.saved_bytes - interner_base_saved;
            report.pool_high_water = pool.high_water();
            report.ring_slots = depth as u32;
            report.pool_bytes_placed = pool.used() - pool_used_base;
            report.pool_leases_taken = pool.leases() - pool_leases_base;
            Ok(Lowered::Recycled(RecycledLowered {
                lp,
                report,
                res: Rc::clone(&p.resolution),
                footprint,
            }))
        }
    }
}

/// Fill the WAIT count / ENABLE horizon of `wr` from the resolved
/// program state. `builder` is the op's own queue's builder (linear
/// staging) — the live `next_wait_count` source for
/// [`WaitCond::LocalAllSignaled`]; ring ops pass `None` (the
/// [`RecycledLoopBuilder`] computes its own).
fn fill_counts(
    p: &IrProgram,
    res: &Resolution,
    id: OpId,
    wr: &mut WorkRequest,
    cq_base: &[u64],
    builder: Option<&ChainBuilder>,
) {
    let op = p.op(id);
    match &op.kind {
        Kind::Wait(WaitCond::LocalAllSignaled) => {
            let b = builder.expect("LocalAllSignaled outside the ring needs its builder");
            *wr = WorkRequest::wait(b.cq(), b.next_wait_count());
            if op.wait_prev {
                wr.wqe.flags |= FLAG_WAIT_PREV;
            }
            if op.signaled {
                wr.wqe.flags |= FLAG_SIGNALED;
            }
        }
        Kind::Wait(WaitCond::OpDonePosted(x)) => {
            let xq = p.ops[x.0].queue;
            let q = p.queues[xq.0].bound().expect("bound");
            let count = res.op_index[x.0].expect("placed") + 1;
            let mut w = WorkRequest::wait(q.cq, count);
            w.wqe.flags = wr.wqe.flags;
            *wr = w;
        }
        Kind::Wait(WaitCond::OpDoneSignaled(x)) => {
            let xq = p.ops[x.0].queue;
            let q = p.queues[xq.0].bound().expect("bound");
            let pos = p.queue_ops[xq.0]
                .iter()
                .position(|o| o == x)
                .expect("placed");
            let signaled_through = p.queue_ops[xq.0][..=pos]
                .iter()
                .filter(|o| p.op(**o).signaled)
                .count() as u64;
            let mut w = WorkRequest::wait(q.cq, cq_base[xq.0] + signaled_through);
            w.wqe.flags = wr.wqe.flags;
            *wr = w;
        }
        Kind::Enable(EnableTarget::OpsThrough(x)) => {
            let xq = p.ops[x.0].queue;
            let q = p.queues[xq.0].bound().expect("bound");
            let count = res.op_index[x.0].expect("placed") + 1;
            let mut e = WorkRequest::enable(q.sq, count);
            e.wqe.flags = wr.wqe.flags;
            *wr = e;
        }
        _ => {}
    }
}
