//! Plan evaluation: one pull-based streaming executor, plus the
//! materializing reference evaluator kept as its differential-test oracle.
//!
//! Table contents come from a [`BagSource`]; the production source is
//! [`PinnedState`], which acquires one read lock per distinct table *up
//! front in sorted name order* — so a query never takes a recursive read
//! lock (self-joins scan the same pinned bag twice) and concurrent
//! evaluations cannot deadlock.
//!
//! * [`eval`] executes the [`crate::plan_opt::fuse`]d plan: operators
//!   yield `(tuple, multiplicity)` pairs and fused `Filter`/`Project`
//!   chains run per tuple, so selective change queries allocate **no**
//!   intermediate bags. Pipeline breakers (`∸`, `ε`, `min`, `max`,
//!   `EXCEPT`, `×`) still materialize — with the exact same bag primitives
//!   the reference evaluator uses, so their multiplicity semantics
//!   (including `×`'s saturating arithmetic) cannot drift. A hash join
//!   builds its smaller side and pushes that side's key set into the other
//!   ([`KeyFilter`]); where the key set reaches a scan of a table with an
//!   index on those columns (`dvm_storage::KeyIndex`), the keys are looked
//!   up instead of the table being scanned. The same code profiles itself when `dvm_obs` profiling is on (see "the
//!   probe" below) — there is no second executor to keep in sync.
//! * [`eval_pair`] runs a maintenance call's `(▼, ▲)` plans as one
//!   program on that executor: subplans both need are computed once and
//!   lent out by reference ([`SharedPlans`]).
//! * [`eval_reference`] is the original strict bottom-up materializing
//!   evaluator. Nothing in the engine calls it; it exists so tests (and the
//!   `exp_eval` baseline series) have an independent implementation to
//!   compare [`eval`] against.
//!
//! Both normalize join keys identically ([`normalize_key_into`]): `Int`
//! coerces to `Double` (so hash-equality coincides with `sql_cmp`'s
//! comparison coercion) and NULL never joins.

use crate::aggregate::{group_aggregate_bag, group_entry};
use crate::error::Result;
use crate::infer::CompiledQuery;
use crate::plan::{PhysPredicate, Plan};
use crate::plan_opt::{fuse, FusedOp, FusedPlan, FusedSource};
use dvm_obs::OpProf;
use dvm_storage::lock::OwnedReadGuard;
use dvm_storage::{
    normalize_key_into, Bag, Catalog, FxHashMap, Snapshot, StorageError, Stored, Tuple, Value,
};
use std::borrow::Cow;
use std::cell::{Cell, OnceCell};
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

/// Read access to named bags for the duration of one evaluation.
pub trait BagSource {
    /// Borrow the bag backing `table`.
    fn bag(&self, table: &str) -> Result<&Bag>;

    /// Whether `table` keeps an index on `cols`.
    fn indexed(&self, _table: &str, _cols: &[usize]) -> bool {
        false
    }

    /// Hand `found(i, tuple, multiplicity)` each tuple of `table` whose
    /// key on `cols` is the `i`-th of `keys`, looked up in an index kept
    /// over the bag at the same state; `false` when the table has none on
    /// those columns.
    fn lookup(
        &self,
        _table: &str,
        _cols: &[usize],
        _keys: &mut dyn Iterator<Item = &[Value]>,
        _found: &mut dyn FnMut(usize, &Tuple, u64),
    ) -> bool {
        false
    }
}

/// A set of tables pinned with read locks for consistent evaluation.
///
/// Locks are acquired in sorted table-name order; drop the `PinnedState`
/// to release them. The pin map is keyed by the tables' shared `Arc<str>`
/// names (refcount bump, no string clone). Each pin holds a table's bag and
/// its indexes under one read lock, so a probe sees the state a scan would.
pub struct PinnedState {
    guards: FxHashMap<Arc<str>, OwnedReadGuard<Stored>>,
}

impl PinnedState {
    /// Pin all `tables` from the catalog (sorted acquisition order).
    pub fn pin(catalog: &Catalog, tables: &BTreeSet<String>) -> Result<Self> {
        let mut guards = FxHashMap::default();
        guards.reserve(tables.len());
        for name in tables {
            let table = catalog.require(name)?;
            guards.insert(table.name_shared(), table.pin());
        }
        Ok(PinnedState { guards })
    }

    /// Pin exactly the tables a plan scans.
    pub fn pin_for(catalog: &Catalog, plan: &Plan) -> Result<Self> {
        Self::pin(catalog, &plan.tables())
    }
}

impl BagSource for PinnedState {
    fn bag(&self, table: &str) -> Result<&Bag> {
        self.guards
            .get(table)
            .map(|p| p.bag())
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()).into())
    }

    fn indexed(&self, table: &str, cols: &[usize]) -> bool {
        self.guards.get(table).is_some_and(|g| g.indexed(cols))
    }

    fn lookup(
        &self,
        table: &str,
        cols: &[usize],
        keys: &mut dyn Iterator<Item = &[Value]>,
        found: &mut dyn FnMut(usize, &Tuple, u64),
    ) -> bool {
        (self.guards.get(table)).is_some_and(|g| g.lookup(cols, keys, found))
    }
}

/// A [`BagSource`] that resolves some tables from runtime-bound
/// **parameter** bags and everything else from pinned catalog state.
///
/// This is what lets a plan be compiled once and re-executed against
/// fresh inputs: the compiled plan scans fixed table *names* (e.g. a
/// view's log tables), and each execution binds the current contents of
/// those names as parameters without recompiling. Parameters are borrowed,
/// so a caller that already holds a table's lock lends the guarded bag
/// instead of copying it (or deadlocking on a pin). A parameter bag has no
/// index; a pinned table keeps its own.
pub struct ParamSource<'a> {
    pinned: PinnedState,
    params: HashMap<&'a str, &'a Bag>,
}

impl<'a> ParamSource<'a> {
    /// Pin every table in `tables` that is not parameter-bound, then wrap.
    pub fn pin<S: AsRef<str> + ?Sized + 'a>(
        catalog: &Catalog,
        tables: &BTreeSet<String>,
        params: impl IntoIterator<Item = (&'a S, &'a Bag)>,
    ) -> Result<Self> {
        let params: HashMap<&str, &Bag> =
            params.into_iter().map(|(n, b)| (n.as_ref(), b)).collect();
        let to_pin: BTreeSet<String> = tables
            .iter()
            .filter(|t| !params.contains_key(t.as_str()))
            .cloned()
            .collect();
        Ok(ParamSource {
            pinned: PinnedState::pin(catalog, &to_pin)?,
            params,
        })
    }
}

impl BagSource for ParamSource<'_> {
    fn bag(&self, table: &str) -> Result<&Bag> {
        match self.params.get(table) {
            Some(b) => Ok(*b),
            None => self.pinned.bag(table),
        }
    }

    fn indexed(&self, table: &str, cols: &[usize]) -> bool {
        !self.params.contains_key(table) && self.pinned.indexed(table, cols)
    }

    fn lookup(
        &self,
        table: &str,
        cols: &[usize],
        keys: &mut dyn Iterator<Item = &[Value]>,
        found: &mut dyn FnMut(usize, &Tuple, u64),
    ) -> bool {
        !self.params.contains_key(table) && self.pinned.lookup(table, cols, keys, found)
    }
}

impl BagSource for Snapshot {
    fn bag(&self, table: &str) -> Result<&Bag> {
        Snapshot::bag(self, table)
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()).into())
    }
}

impl BagSource for HashMap<String, Bag> {
    fn bag(&self, table: &str) -> Result<&Bag> {
        self.get(table)
            .ok_or_else(|| StorageError::NoSuchTable(table.to_string()).into())
    }
}

/// Evaluate a plan against a bag source, returning an owned bag.
///
/// When `dvm_obs` profiling is enabled, the same executor runs with its
/// probe on: it produces the identical bag while building an
/// `EXPLAIN ANALYZE`-style [`OpProf`] tree (rows in/out and wall nanos per
/// operator), deposited in the calling thread's capture buffer for the
/// maintenance driver to claim. The disabled path pays one relaxed atomic
/// load here and one branch per pipeline *stage constructed* — nothing per
/// tuple.
pub fn eval(plan: &Plan, src: &dyn BagSource) -> Result<Bag> {
    run(plan, &Cx::new(src, &SharedPlans::default()))
}

/// Evaluate a maintenance call's `(▼, ▲)` plan pair as one program: both
/// plans see the same source, and every subplan `shared` names is computed
/// by whichever plan needs it first and lent to later uses by reference.
/// `shared` must be [`SharedPlans::of`] these very plans. The results live
/// in a context local to this call and die with it.
pub fn eval_pair(
    del: &Plan,
    ins: &Plan,
    shared: &SharedPlans,
    src: &dyn BagSource,
) -> Result<(Bag, Bag)> {
    let cx = Cx::new(src, shared);
    Ok((run(del, &cx)?, run(ins, &cx)?))
}

/// One plan of a call, probed iff profiling is on.
fn run(plan: &Plan, cx: &Cx<'_>) -> Result<Bag> {
    if !dvm_obs::profiling_on() {
        return Ok(eval_to_bag(plan, cx, None, None)?.into_owned());
    }
    let (bag, tree) = eval_probed(plan, cx)?;
    dvm_obs::profile::record_eval(tree);
    Ok(bag)
}

/// [`run`] with the probe on: the result bag plus its annotated tree.
fn eval_probed(plan: &Plan, cx: &Cx<'_>) -> Result<(Bag, OpProf)> {
    let t = Instant::now();
    let mut root = Vec::with_capacity(1);
    let bag = eval_to_bag(plan, cx, None, Some(&mut root))?.into_owned();
    let mut tree = root.pop().expect("one node per plan").finish();
    // Per-operator timers cannot see the driver's own work (pipeline
    // setup, result materialization, tree assembly), so lift the root's
    // inclusive time to the call's wall time — the difference becomes root
    // self time and the tree telescopes to what the caller actually waited.
    tree.nanos = tree.nanos.max(t.elapsed().as_nanos() as u64);
    Ok((bag, tree))
}

/// Evaluate a compiled query against the current catalog state, pinning the
/// tables it reads.
pub fn eval_in_catalog(query: &CompiledQuery, catalog: &Catalog) -> Result<Bag> {
    let pinned = PinnedState::pin_for(catalog, &query.plan)?;
    eval(&query.plan, &pinned)
}

// ---- the probe --------------------------------------------------------------
//
// Consulted only where a stage is *constructed*: off, no `Timed` wrapper,
// counter cell or `Instant::now` is ever created, so the per-tuple path is
// exactly the unprobed closure chain.
//
// Timing model: all times are inclusive. An eagerly evaluated operator (a
// breaker, a join build) is timed around its whole evaluation, inputs
// included. A pipeline stage is charged the wall time its pipeline took to
// *build* (breaker materialization and hash-join builds happen there) plus
// the time spent inside its [`Timed`] `next()` calls, which includes the
// upstream stages it pulls from. Exclusive times then telescope back to
// the root's inclusive total.

/// Where an evaluation deposits the profile node of the operator it
/// evaluates: `None` when the probe is off.
type Sink<'p> = Option<&'p mut Vec<PNode>>;

/// Rows yielded and inclusive nanos of one operator; shared with the
/// operator's [`Timed`] wrapper while a pipeline stage is still streaming.
#[derive(Default)]
struct Counter {
    rows: Cell<u64>,
    nanos: Cell<u64>,
}

/// One operator of a probed evaluation, its inputs below it.
struct PNode {
    label: String,
    cell: Rc<Counter>,
    children: Vec<PNode>,
}

impl PNode {
    /// An operator that has yielded `rows` pairs and run since `started`.
    fn new(label: String, rows: u64, started: Instant, children: Vec<PNode>) -> PNode {
        let cell = Rc::new(Counter::default());
        cell.rows.set(rows);
        cell.nanos.set(started.elapsed().as_nanos() as u64);
        PNode {
            label,
            cell,
            children,
        }
    }

    /// A pipeline stage under construction since `started`: `inner` comes
    /// back wrapped so that draining it keeps the node's counters current.
    fn stage<'s>(
        label: String,
        started: Instant,
        children: Vec<PNode>,
        inner: TupleStream<'s>,
    ) -> (PNode, TupleStream<'s>) {
        let node = PNode::new(label, 0, started, children);
        let cell = Rc::clone(&node.cell);
        (node, Box::new(Timed { inner, cell }))
    }

    /// Convert the (drained) tree into finished [`OpProf`]s. Inclusive time
    /// is floored at the children's total, so exclusive times never wrap.
    fn finish(self) -> OpProf {
        let children: Vec<OpProf> = self.children.into_iter().map(PNode::finish).collect();
        let child_sum: u64 = children.iter().map(|c| c.nanos).sum();
        OpProf {
            label: self.label,
            rows_in: children.iter().map(|c| c.rows_out).sum(),
            rows_out: self.cell.rows.get(),
            nanos: self.cell.nanos.get().max(child_sum),
            children,
        }
    }
}

/// Counts yielded pairs and accumulates wall time spent inside `next()` —
/// inclusive of every streamed stage upstream.
struct Timed<'s> {
    inner: TupleStream<'s>,
    cell: Rc<Counter>,
}

impl Iterator for Timed<'_> {
    type Item = Result<(Tuple, u64)>;

    fn next(&mut self) -> Option<Self::Item> {
        let start = Instant::now();
        let item = self.inner.next();
        self.cell
            .nanos
            .set(self.cell.nanos.get() + start.elapsed().as_nanos() as u64);
        if item.is_some() {
            self.cell.rows.set(self.cell.rows.get() + 1);
        }
        item
    }
}

// ---- one call's context ---------------------------------------------------

/// The subplans of a `(▼, ▲)` plan pair that one [`eval_pair`] call
/// computes once: every pipeline breaker (`∸`, `ε`, `min`, `max`, `EXCEPT`,
/// `×`, `γ`) and every hash-join build side that occurs more than once
/// across the two plans — Figure 2 puts the survivors `F ∸ D F` and the
/// aggregates `G(E)`, `G(η(E))` into *both* change queries. Occurrences are
/// matched by [`Plan::fingerprint128`] where the pair is compiled, never
/// while it runs; at run time a node is recognized by its address, so a
/// value is only good for the plans it was made [`of`](Self::of), wherever
/// their roots move (a miss merely evaluates the node in place).
#[derive(Debug, Default)]
pub struct SharedPlans {
    /// `(node address, is a join build, slot)` per shared occurrence.
    nodes: Vec<(usize, bool, usize)>,
    slots: usize,
}

impl SharedPlans {
    /// Find the repeated subplans of a plan pair. The two roots themselves
    /// are left out — callers move them, their inputs are boxed — and a
    /// repeated breaker is not searched again: its first occurrence covers
    /// what is inside it.
    pub fn of(del: &Plan, ins: &Plan) -> SharedPlans {
        type Seen = BTreeMap<u128, Vec<(usize, bool)>>;
        fn note(seen: &mut Seen, node: &Plan, build_keys: Option<&[usize]>) -> usize {
            let same = seen
                .entry(node.fingerprint128(build_keys.unwrap_or(&[])))
                .or_default();
            same.push((node as *const Plan as usize, build_keys.is_some()));
            same.len()
        }
        fn walk(plan: &Plan, seen: &mut Seen) {
            match plan {
                Plan::HashJoin {
                    left,
                    right,
                    left_keys,
                    right_keys,
                    ..
                } => {
                    note(seen, left, Some(left_keys));
                    note(seen, right, Some(right_keys));
                }
                Plan::Scan(_)
                | Plan::Literal(_)
                | Plan::Filter(..)
                | Plan::Project(..)
                | Plan::Union(..) => {}
                _breaker => {
                    if note(seen, plan, None) > 1 {
                        return;
                    }
                }
            }
            plan.inputs().into_iter().for_each(|p| walk(p, seen));
        }
        let mut seen = Seen::new();
        for p in del.inputs().into_iter().chain(ins.inputs()) {
            walk(p, &mut seen);
        }
        let mut shared = SharedPlans::default();
        for same in seen.into_values().filter(|same| same.len() > 1) {
            let slot = shared.slots;
            shared.slots += 1;
            shared
                .nodes
                .extend(same.into_iter().map(|(node, build)| (node, build, slot)));
        }
        shared
    }

    /// The slot `plan`'s result (its join build, with `build`) is shared
    /// through, if this very node is one of the repeated ones.
    pub(crate) fn slot_of(&self, plan: &Plan, build: bool) -> Option<usize> {
        let at = plan as *const Plan as usize;
        let found = self.nodes.iter().find(|(n, b, _)| (*n, *b) == (at, build));
        found.map(|&(_, _, slot)| slot)
    }

    /// How many results a call keeps to lend out.
    pub fn len(&self) -> usize {
        self.slots
    }

    /// Whether the pair shares nothing.
    pub fn is_empty(&self) -> bool {
        self.slots == 0
    }
}

/// What one evaluation call threads through the executor: its source and —
/// for a plan pair — the shared results computed so far. An explicit value,
/// local to the call: concurrent maintenance of other views on pool
/// threads never sees it.
struct Cx<'a> {
    src: &'a dyn BagSource,
    shared: &'a SharedPlans,
    bags: Vec<OnceCell<Bag>>,
    builds: Vec<OnceCell<Arc<JoinBuild>>>,
}

impl<'a> Cx<'a> {
    fn new(src: &'a dyn BagSource, shared: &'a SharedPlans) -> Self {
        let cells = shared.slots;
        Cx {
            src,
            shared,
            bags: (0..cells).map(|_| OnceCell::new()).collect(),
            builds: (0..cells).map(|_| OnceCell::new()).collect(),
        }
    }
}

/// A materialized join build side: normalized key → the tuples (and
/// multiplicities) carrying it. Keys are boxed slices so probes can look up
/// with a borrowed `&[Value]` scratch buffer (no per-probe allocation).
type JoinBuild = FxHashMap<Box<[Value]>, Vec<(Tuple, u64)>>;

/// The key set of a join's build side as a per-tuple test on its probe
/// side, pushed down to the probe side's scans. `cols` are the join-key
/// positions in the tuples of the operator the test has been pushed to.
/// Sound below every operator that treats tuples one at a time:
/// `σ_K(A ∸ B) = σ_K(A) ∸ σ_K(B)`, likewise `⊎`, `min`, `max`, `EXCEPT`,
/// `ε`, `σ`, and `Π` with the positions mapped through it. The test is the
/// join's own ([`normalize_key_into`]), so it drops exactly the tuples the
/// probe would find no match for. At a scan of a table with an index on
/// those columns it becomes lookups of its keys.
#[derive(Clone)]
struct KeyFilter {
    keys: Arc<JoinBuild>,
    cols: Vec<usize>,
}

impl KeyFilter {
    fn admits(&self, t: &Tuple, scratch: &mut Vec<Value>) -> bool {
        normalize_key_into(t, &self.cols, scratch) && self.keys.contains_key(scratch.as_slice())
    }

    /// Whether the test passes through `plan` to its inputs (for a streamed
    /// operator the pipeline decides).
    fn passes(plan: &Plan) -> bool {
        matches!(
            plan,
            Plan::DupElim(_)
                | Plan::Monus(..)
                | Plan::MinIntersect(..)
                | Plan::MaxUnion(..)
                | Plan::Except(..)
        )
    }
}

/// The `(table, key columns)` pairs whose index `plan`'s evaluation may
/// probe: every join side's key set, followed down the way [`stream`] and
/// [`eval_node`] push it — through `σ`, through `Π` with the positions
/// mapped, into both inputs of `⊎` and of each operator the test
/// [passes](KeyFilter::passes) — to the scans it reaches. Which side a join
/// builds is decided per call by size, so both sides count.
pub fn probed_scans(plan: &Plan) -> BTreeSet<(String, Vec<usize>)> {
    fn push(plan: &Plan, cols: Vec<usize>, out: &mut BTreeSet<(String, Vec<usize>)>) {
        match plan {
            Plan::Scan(name) => {
                out.insert((name.clone(), cols));
            }
            Plan::Filter(_, a) => push(a, cols, out),
            Plan::Project(from, a) => push(a, cols.iter().map(|&c| from[c]).collect(), out),
            _ if matches!(plan, Plan::Union(..)) || KeyFilter::passes(plan) => {
                (plan.inputs().into_iter()).for_each(|a| push(a, cols.clone(), out))
            }
            _ => {}
        }
    }
    fn walk(plan: &Plan, out: &mut BTreeSet<(String, Vec<usize>)>) {
        if let Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            ..
        } = plan
        {
            push(left, left_keys.clone(), out);
            push(right, right_keys.clone(), out);
        }
        plan.inputs().into_iter().for_each(|p| walk(p, out));
    }
    let mut out = BTreeSet::new();
    walk(plan, &mut out);
    out
}

/// Drop the owned tuples `kf` does not admit.
fn key_filtered<'s>(base: TupleStream<'s>, kf: Option<KeyFilter>) -> TupleStream<'s> {
    let Some(kf) = kf else { return base };
    let mut scratch = Vec::with_capacity(kf.cols.len());
    Box::new(base.filter(move |item| match item {
        Ok((t, _)) => kf.admits(t, &mut scratch),
        Err(_) => true,
    }))
}

// ---- streaming executor ---------------------------------------------------

/// A pull-based stream of `(tuple, multiplicity)` pairs. Errors (missing
/// tables, multiplicity overflow) flow through as items.
type TupleStream<'s> = Box<dyn Iterator<Item = Result<(Tuple, u64)>> + 's>;

/// The profile label of an eagerly evaluated operator; `None` for the
/// streamed shapes, whose pipeline reports its root stage itself.
fn eager_label(plan: &Plan) -> Option<String> {
    Some(match plan {
        Plan::Filter(..) | Plan::Project(..) | Plan::Union(..) | Plan::HashJoin { .. } => {
            return None
        }
        Plan::Scan(name) => format!("Scan {name}"),
        Plan::Literal(_) => "Literal".to_string(),
        Plan::DupElim(_) => "DupElim (ε)".to_string(),
        Plan::Monus(..) => "Monus (∸)".to_string(),
        Plan::Product(..) => "Product (×)".to_string(),
        Plan::MinIntersect(..) => "MinIntersect (min)".to_string(),
        Plan::MaxUnion(..) => "MaxUnion (max)".to_string(),
        Plan::Except(..) => "Except".to_string(),
        Plan::GroupAggregate { .. } => "GroupAggregate".to_string(),
    })
}

/// Evaluate a plan to a bag, streaming wherever the fused shape allows and
/// falling back to the exact bag primitives at pipeline breakers. With a
/// sink, reports exactly one profile node for `plan`. With a key filter,
/// yields `σ_K(plan)`.
///
/// A subplan the call's pair shares is computed at its first use and lent
/// out afterwards (a `… (shared)` leaf in the profile). A key-filtered
/// evaluation sees only part of the result, so it neither fills nor reads
/// the shared slot.
fn eval_to_bag<'a>(
    plan: &'a Plan,
    cx: &'a Cx<'a>,
    kf: Option<&KeyFilter>,
    prof: Sink<'_>,
) -> Result<Cow<'a, Bag>> {
    let slot = match kf {
        None => cx.shared.slot_of(plan, false).map(|i| &cx.bags[i]),
        Some(_) => None,
    };
    if let Some(bag) = slot.and_then(OnceCell::get) {
        if let (Some(sink), Some(label)) = (prof, eager_label(plan)) {
            let (rows, now) = (bag.distinct_len() as u64, Instant::now());
            sink.push(PNode::new(label + " (shared)", rows, now, Vec::new()));
        }
        return Ok(Cow::Borrowed(bag));
    }
    // Under a key filter whatever cannot pass it on streams (and filters).
    let eager = prof.is_some() && (kf.is_none() || KeyFilter::passes(plan));
    let bag = match (prof, eager.then(|| eager_label(plan)).flatten()) {
        (Some(sink), Some(label)) => {
            let started = Instant::now();
            let mut inputs = Vec::new();
            let bag = eval_node(plan, cx, kf, Some(&mut inputs))?;
            let rows = bag.distinct_len() as u64;
            sink.push(PNode::new(label, rows, started, inputs));
            bag
        }
        (prof, _) => eval_node(plan, cx, kf, prof)?,
    };
    Ok(match slot {
        Some(cell) => Cow::Borrowed(cell.get_or_init(|| bag.into_owned())),
        None => bag,
    })
}

/// [`eval_to_bag`]'s operator match; `inputs` is where the operator's
/// inputs (for a streamed plan: its pipeline's root stage) report.
fn eval_node<'a>(
    plan: &'a Plan,
    cx: &'a Cx<'a>,
    kf: Option<&KeyFilter>,
    mut inputs: Sink<'_>,
) -> Result<Cow<'a, Bag>> {
    Ok(match plan {
        Plan::Scan(name) if kf.is_none() => Cow::Borrowed(cx.src.bag(name)?),
        Plan::Literal(bag) if kf.is_none() => Cow::Borrowed(bag),
        // Pipeline breakers: exact bag primitives, streaming children. The
        // per-tuple ones hand a key filter on to both inputs.
        Plan::DupElim(a) => Cow::Owned(eval_to_bag(a, cx, kf, inputs)?.dedup()),
        Plan::Monus(a, b) => {
            let x = eval_to_bag(a, cx, kf, inputs.as_deref_mut())?;
            let y = eval_to_bag(b, cx, kf, inputs)?;
            match x {
                Cow::Owned(mut owned) => {
                    owned.monus_assign(&y);
                    Cow::Owned(owned)
                }
                Cow::Borrowed(b_ref) => Cow::Owned(b_ref.monus(&y)),
            }
        }
        Plan::Product(a, b) if kf.is_none() => {
            let x = eval_to_bag(a, cx, None, inputs.as_deref_mut())?;
            let y = eval_to_bag(b, cx, None, inputs)?;
            Cow::Owned(x.product(&y))
        }
        Plan::MinIntersect(a, b) => {
            let x = eval_to_bag(a, cx, kf, inputs.as_deref_mut())?;
            let y = eval_to_bag(b, cx, kf, inputs)?;
            Cow::Owned(x.min_intersect(&y))
        }
        Plan::MaxUnion(a, b) => {
            let x = eval_to_bag(a, cx, kf, inputs.as_deref_mut())?;
            let y = eval_to_bag(b, cx, kf, inputs)?;
            Cow::Owned(x.max_union(&y))
        }
        Plan::Except(a, b) => {
            let x = eval_to_bag(a, cx, kf, inputs.as_deref_mut())?;
            let y = eval_to_bag(b, cx, kf, inputs)?;
            Cow::Owned(x.except_all_occurrences(&y))
        }
        Plan::GroupAggregate { keys, aggs, input } if kf.is_none() => {
            let b = eval_to_bag(input, cx, None, inputs)?;
            Cow::Owned(group_aggregate_bag(&b, keys, aggs))
        }
        // Streamable shapes — and, under a key filter, everything the
        // filter stops at: fuse and drain the pipeline into one bag.
        _ => {
            let fused = fuse(plan);
            let mut out = Bag::new();
            for item in stream(&fused, cx, kf, inputs)? {
                let (t, m) = item?;
                out.insert_n(t, m);
            }
            Cow::Owned(out)
        }
    })
}

/// Instantiate a fused pipeline as a pull stream. Bag-backed sources apply
/// the op chain on *borrowed* tuples ([`apply_ops_ref`]): a tuple rejected
/// by a pushed key filter or a leading filter is never cloned, and the
/// first projection allocates directly from the borrow — the
/// selective-change-query hot path does no work at all for non-qualifying
/// tuples.
///
/// A key filter `kf` (positions relative to the pipeline's *output*) is
/// mapped through the op chain and handed on to the inputs of a `⊎` or of
/// a breaker it [passes](KeyFilter::passes); any other source applies it
/// to what it yields.
///
/// With a probe, the source stage runs an *empty* op chain (so bag-backed
/// sources clone each tuple up front — a refcount bump, the small price of
/// per-operator attribution), a key filter applied here and every fused op
/// become [`Timed`] stages of their own on top, and the pipeline's root
/// stage is reported to `prof`.
fn stream<'s>(
    fp: &'s FusedPlan<'s>,
    cx: &'s Cx<'s>,
    kf: Option<&KeyFilter>,
    prof: Sink<'_>,
) -> Result<TupleStream<'s>> {
    let started = prof.is_some().then(Instant::now);
    let on = started.is_some();
    let ops = if on { &[] } else { fp.ops.as_slice() };
    let kf = kf.map(|kf| KeyFilter {
        keys: Arc::clone(&kf.keys),
        cols: below(fp, &kf.cols),
    });
    let (down, here) = match &fp.source {
        FusedSource::Union(..) => (kf, None),
        FusedSource::Breaker(plan) if KeyFilter::passes(plan) => (kf, None),
        _ => (None, kf),
    };
    // A key filter arriving at a scan of an indexed table looks its keys up
    // instead, when there are fewer keys than distinct rows to test.
    let lookup = match (&fp.source, &here) {
        (FusedSource::Scan(name), Some(kf)) if kf.keys.len() < cx.src.bag(name)?.distinct_len() => {
            let mut rows = Vec::new();
            let keys = &mut kf.keys.keys().map(|k| &**k);
            let found = &mut |_, t: &Tuple, m| rows.push((t.clone(), m));
            cx.src.lookup(name, &kf.cols, keys, found).then_some(rows)
        }
        _ => None,
    };
    let here = if lookup.is_some() { None } else { here };
    // Unprobed, `here` runs inside the source stage; probed, on top of it.
    let inline = if on { None } else { here.clone() };
    let over_bag = |bag: &'s Bag| -> TupleStream<'s> {
        let kf = inline.clone();
        let mut scratch = Vec::new();
        Box::new(bag.iter().filter_map(move |(t, m)| {
            if kf.as_ref().is_some_and(|kf| !kf.admits(t, &mut scratch)) {
                return None;
            }
            apply_ops_ref(t, m, ops).map(Ok)
        }))
    };
    let mut inputs = Vec::new();
    let mut join_label = String::new();
    let indexed = lookup.is_some();
    let s = match &fp.source {
        FusedSource::Scan(_) if indexed => Box::new(
            (lookup.into_iter().flatten())
                .filter_map(move |(t, m)| apply_ops_owned(t, m, ops).map(Ok)),
        ),
        FusedSource::Scan(name) => over_bag(cx.src.bag(name)?),
        FusedSource::Literal(bag) => over_bag(bag),
        FusedSource::Union(a, b) => {
            let sa = stream(a, cx, down.as_ref(), on.then_some(&mut inputs))?;
            let sb = stream(b, cx, down.as_ref(), on.then_some(&mut inputs))?;
            apply_ops(Box::new(sa.chain(sb)), ops)
        }
        FusedSource::Join {
            left,
            left_plan,
            right,
            right_plan,
            left_keys,
            right_keys,
            residual,
        } => {
            // A side that scans an indexed base table is probed by key, the
            // other side streamed through it: no table is built.
            // Of two indexed sides, the smaller streams through the larger.
            let left_side = (&**left, *left_keys, &**right, *right_keys, true);
            let right_side = (&**right, *right_keys, &**left, *left_keys, false);
            let mut sides = [right_side, left_side];
            if size_bound(left_plan, cx.src) > size_bound(right_plan, cx.src) {
                sides.reverse();
            }
            let indexed_side = sides.into_iter().find(|(fp, keys, ..)| {
                matches!(fp.source, FusedSource::Scan(name) if cx.src.indexed(name, &below(fp, keys)))
            });
            let joined: TupleStream<'s> = match indexed_side {
                Some((ix_fp, ix_keys, other, other_keys, ix_left)) => {
                    let FusedSource::Scan(name) = ix_fp.source else {
                        unreachable!("matched a scan")
                    };
                    join_label = format!("IndexJoin {name}");
                    let other = stream(other, cx, None, on.then_some(&mut inputs))?;
                    index_join(
                        cx, name, ix_fp, ix_keys, ix_left, other, other_keys, residual,
                    )?
                }
                None => {
                    // Build the side that can only be smaller — the
                    // differential rules join a delta with a survivor
                    // `F ∸ D F` in either order — and push its key set into
                    // the probe side, so only tuples that can join are ever
                    // read: an indexed base table below a `∸` or `⊎` is
                    // looked up by key, and only survivors that can join are
                    // materialized.
                    let build_left = size_bound(left_plan, cx.src) < size_bound(right_plan, cx.src);
                    let (build_plan, build_keys, probe_fp, probe_keys) = if build_left {
                        (*left_plan, *left_keys, &**right, *right_keys)
                    } else {
                        (*right_plan, *right_keys, &**left, *left_keys)
                    };
                    let side = if build_left { "left" } else { "right" };
                    join_label = format!("HashJoin (build={side})");
                    let table =
                        build_join_table(build_plan, build_keys, cx, on.then_some(&mut inputs))?;
                    let push = KeyFilter {
                        keys: Arc::clone(&table),
                        cols: probe_keys.to_vec(),
                    };
                    Box::new(JoinProbe {
                        probe: stream(probe_fp, cx, Some(&push), on.then_some(&mut inputs))?,
                        build: table,
                        probe_keys,
                        residual,
                        build_left,
                        scratch: Vec::with_capacity(probe_keys.len()),
                        out: VecDeque::new(),
                    })
                }
            };
            apply_ops(key_filtered(joined, inline.clone()), ops)
        }
        FusedSource::Breaker(plan) => {
            match eval_to_bag(plan, cx, down.as_ref(), on.then_some(&mut inputs))? {
                Cow::Borrowed(bag) => over_bag(bag),
                Cow::Owned(bag) => {
                    let owned = Box::new(bag.into_iter().map(Ok));
                    apply_ops(key_filtered(owned, inline.clone()), ops)
                }
            }
        }
    };
    let (Some(parent), Some(started)) = (prof, started) else {
        return Ok(s);
    };
    // A bag-backed source does no work of its own: it is reported as a leaf
    // yielding the whole bag (pipelines are always drained) instead of
    // paying two clock reads for every tuple it hands over.
    let (label, leaf) = match &fp.source {
        FusedSource::Scan(name) if indexed => (format!("IndexProbe {name}"), None),
        FusedSource::Scan(name) => (
            format!("Scan {name}"),
            Some(cx.src.bag(name)?.distinct_len()),
        ),
        FusedSource::Literal(bag) => ("Literal".to_string(), Some(bag.distinct_len())),
        FusedSource::Union(..) => ("Union (⊎)".to_string(), None),
        FusedSource::Join { .. } => (join_label, None),
        // The stage's cell times the drain of the materialized result
        // into the pipeline; the eval itself is the eager child.
        FusedSource::Breaker(_) => ("Stream".to_string(), None),
    };
    let (mut node, mut s) = match leaf {
        Some(rows) => (PNode::new(label, rows as u64, started, inputs), s),
        None => PNode::stage(label, started, inputs, s),
    };
    if here.is_some() {
        let staged = key_filtered(s, here);
        (node, s) = PNode::stage("KeyFilter".to_string(), started, vec![node], staged);
    }
    for op in &fp.ops {
        let label = match op {
            FusedOp::Filter(_) => "Filter".to_string(),
            FusedOp::Project(cols) => format!("Project [{}]", cols.len()),
        };
        let staged = apply_ops(s, std::slice::from_ref(op));
        (node, s) = PNode::stage(label, started, vec![node], staged);
    }
    parent.push(node);
    Ok(s)
}

/// Key positions `cols` of a pipeline's output, mapped to where its
/// projections took them from in its source's tuples.
fn below(fp: &FusedPlan<'_>, cols: &[usize]) -> Vec<usize> {
    fp.ops
        .iter()
        .rev()
        .fold(cols.to_vec(), |cols, op| match op {
            FusedOp::Project(from) => cols.iter().map(|&c| from[c]).collect(),
            FusedOp::Filter(_) => cols,
        })
}

/// An index join: every tuple of `other` (the join side that is not
/// `ix_fp`, a pipeline over a scan of the indexed `table`) has its key
/// looked up in `table`'s index, and each match, lent by the index, runs
/// through `ix_fp`'s ops before it is joined. One lookup serves all of
/// `other`.
#[allow(clippy::too_many_arguments)]
fn index_join<'s>(
    cx: &'s Cx<'s>,
    table: &str,
    ix_fp: &'s FusedPlan<'s>,
    ix_keys: &[usize],
    ix_left: bool,
    other: TupleStream<'s>,
    other_keys: &[usize],
    residual: &PhysPredicate,
) -> Result<TupleStream<'s>> {
    let (mut probes, mut keys, mut scratch) = (Vec::new(), Vec::new(), Vec::new());
    for item in other {
        let (t, m) = item?;
        if normalize_key_into(&t, other_keys, &mut scratch) {
            keys.append(&mut scratch);
            probes.push((t, m));
        }
    }
    let width = other_keys.len().max(1);
    let mut out = Vec::new();
    let cols = below(ix_fp, ix_keys);
    cx.src
        .lookup(table, &cols, &mut keys.chunks(width), &mut |i, it, im| {
            let (pt, pm) = &probes[i];
            let Some((it, im)) = apply_ops_ref(it, im, &ix_fp.ops) else {
                return;
            };
            let (joined, lm, rm) = match ix_left {
                true => (it.concat(pt), im, *pm),
                false => (pt.concat(&it), *pm, im),
            };
            if residual.eval(&joined) {
                out.push(match lm.checked_mul(rm) {
                    Some(m) => Ok((joined, m)),
                    None => Err(crate::AlgebraError::MultiplicityOverflow {
                        left: lm,
                        right: rm,
                    }),
                });
            }
        });
    Ok(Box::new(out.into_iter()))
}

/// Apply a fused op chain to a *borrowed* tuple. Leading filters run on the
/// borrow; the tuple is cloned only if it survives them, and a first
/// projection replaces the clone entirely (it allocates the projected tuple
/// straight from the borrow).
fn apply_ops_ref(t: &Tuple, m: u64, ops: &[FusedOp]) -> Option<(Tuple, u64)> {
    for (i, op) in ops.iter().enumerate() {
        match op {
            FusedOp::Filter(pred) => {
                if !pred.eval(t) {
                    return None;
                }
            }
            FusedOp::Project(cols) => return apply_ops_owned(t.project(cols), m, &ops[i + 1..]),
        }
    }
    Some((t.clone(), m))
}

/// Apply a fused op chain to an owned tuple.
fn apply_ops_owned(mut t: Tuple, m: u64, ops: &[FusedOp]) -> Option<(Tuple, u64)> {
    for op in ops {
        match op {
            FusedOp::Filter(pred) => {
                if !pred.eval(&t) {
                    return None;
                }
            }
            FusedOp::Project(cols) => t = t.project(cols),
        }
    }
    Some((t, m))
}

/// Wrap a stream of owned tuples with a fused per-tuple op chain. One
/// closure, no per-operator boxing, no intermediate bags.
fn apply_ops<'s>(base: TupleStream<'s>, ops: &'s [FusedOp<'s>]) -> TupleStream<'s> {
    if ops.is_empty() {
        return base;
    }
    Box::new(base.filter_map(move |item| match item {
        Ok((t, m)) => apply_ops_owned(t, m, ops).map(Ok),
        Err(e) => Some(Err(e)),
    }))
}

/// A cheap upper bound on the distinct tuples `plan` can yield, from the
/// `distinct_len` of the scans beneath it — no tuple is touched.
fn size_bound(plan: &Plan, src: &dyn BagSource) -> usize {
    match plan {
        Plan::Scan(name) => src.bag(name).map_or(usize::MAX, Bag::distinct_len),
        Plan::Literal(bag) => bag.distinct_len(),
        Plan::Filter(_, a) | Plan::Project(_, a) | Plan::DupElim(a) => size_bound(a, src),
        Plan::GroupAggregate { input, .. } => size_bound(input, src),
        Plan::Monus(a, _) | Plan::MinIntersect(a, _) | Plan::Except(a, _) => size_bound(a, src),
        Plan::Union(a, b) | Plan::MaxUnion(a, b) => {
            size_bound(a, src).saturating_add(size_bound(b, src))
        }
        Plan::Product(a, b)
        | Plan::HashJoin {
            left: a, right: b, ..
        } => size_bound(a, src).saturating_mul(size_bound(b, src)),
    }
}

/// Materialize a join build table: normalized key → the build tuples
/// carrying it. A build the call's plan pair repeats is kept in the call's
/// shared slot and lent to its later uses.
///
/// With a sink, reports a `JoinBuild` node over the build subtree — or, for
/// a lent build, a `JoinBuild (shared)` leaf whose time is just the lookup.
fn build_join_table<'a>(
    build_plan: &'a Plan,
    right_keys: &[usize],
    cx: &'a Cx<'a>,
    prof: Sink<'_>,
) -> Result<Arc<JoinBuild>> {
    let started = prof.is_some().then(Instant::now);
    let mut inputs = Vec::new();
    let slot = cx.shared.slot_of(build_plan, true).map(|i| &cx.builds[i]);
    let (label, table) = match slot.and_then(OnceCell::get) {
        Some(hit) => ("JoinBuild (shared)", Arc::clone(hit)),
        None => {
            let bag = eval_to_bag(build_plan, cx, None, prof.is_some().then_some(&mut inputs))?;
            let mut table = JoinBuild::default();
            let mut scratch: Vec<Value> = Vec::with_capacity(right_keys.len());
            for (t, m) in bag.iter() {
                if normalize_key_into(t, right_keys, &mut scratch) {
                    group_entry(&mut table, &scratch).push((t.clone(), m));
                }
            }
            let table = Arc::new(table);
            if let Some(cell) = slot {
                let _ = cell.set(Arc::clone(&table));
            }
            ("JoinBuild", table)
        }
    };
    if let (Some(sink), Some(started)) = (prof, started) {
        let rows = table.values().map(|v| v.len() as u64).sum();
        sink.push(PNode::new(label.to_string(), rows, started, inputs));
    }
    Ok(table)
}

/// Streaming probe side of a hash join: pulls probe tuples, normalizes
/// their keys into a reusable scratch buffer, looks the keys up by
/// borrowed slice, and yields residual-filtered concatenations with
/// checked multiplicity products.
///
/// The output tuple is always `left ++ right` regardless of which side was
/// built: when the build side is the *left* subtree, each match is emitted
/// as `build_tuple ++ probe_tuple`.
struct JoinProbe<'s> {
    probe: TupleStream<'s>,
    build: Arc<JoinBuild>,
    probe_keys: &'s [usize],
    residual: &'s PhysPredicate,
    /// The build table holds the plan's left side (flipped join).
    build_left: bool,
    scratch: Vec<Value>,
    /// Joined tuples from the current probe tuple, drained before pulling
    /// the next one. Reused across probe tuples.
    out: VecDeque<Result<(Tuple, u64)>>,
}

impl Iterator for JoinProbe<'_> {
    type Item = Result<(Tuple, u64)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            if let Some(item) = self.out.pop_front() {
                return Some(item);
            }
            let (pt, pm) = match self.probe.next()? {
                Ok(pair) => pair,
                Err(e) => return Some(Err(e)),
            };
            if !normalize_key_into(&pt, self.probe_keys, &mut self.scratch) {
                continue;
            }
            let Some(matches) = self.build.get(self.scratch.as_slice()) else {
                continue;
            };
            for (bt, bm) in matches {
                let joined = if self.build_left {
                    bt.concat(&pt)
                } else {
                    pt.concat(bt)
                };
                if self.residual.eval(&joined) {
                    // Error fields stay in plan order (left × right).
                    let (lm, rm) = if self.build_left {
                        (*bm, pm)
                    } else {
                        (pm, *bm)
                    };
                    self.out.push_back(match pm.checked_mul(*bm) {
                        Some(m) => Ok((joined, m)),
                        None => Err(crate::AlgebraError::MultiplicityOverflow {
                            left: lm,
                            right: rm,
                        }),
                    });
                }
            }
        }
    }
}

// ---- reference evaluator --------------------------------------------------

/// Evaluate with the materializing reference evaluator: strictly bottom-up,
/// one owned/borrowed bag per operator. A test oracle — the independent
/// implementation [`eval`] is differentially tested against — and never
/// called by the engine.
pub fn eval_reference(plan: &Plan, src: &dyn BagSource) -> Result<Bag> {
    Ok(eval_cow(plan, src)?.into_owned())
}

fn eval_cow<'a>(plan: &'a Plan, src: &'a dyn BagSource) -> Result<Cow<'a, Bag>> {
    Ok(match plan {
        Plan::Scan(name) => Cow::Borrowed(src.bag(name)?),
        Plan::Literal(bag) => Cow::Borrowed(bag),
        Plan::Filter(pred, input) => {
            let b = eval_cow(input, src)?;
            Cow::Owned(b.select(|t| pred.eval(t)))
        }
        Plan::Project(indices, input) => {
            let b = eval_cow(input, src)?;
            Cow::Owned(b.project(indices))
        }
        Plan::DupElim(input) => {
            let b = eval_cow(input, src)?;
            Cow::Owned(b.dedup())
        }
        Plan::Union(a, b) => {
            let x = eval_cow(a, src)?;
            let y = eval_cow(b, src)?;
            Cow::Owned(x.union(&y))
        }
        Plan::Monus(a, b) => {
            let x = eval_cow(a, src)?;
            let y = eval_cow(b, src)?;
            // Avoid cloning the left side when it is already owned.
            match x {
                Cow::Owned(mut owned) => {
                    owned.monus_assign(&y);
                    Cow::Owned(owned)
                }
                Cow::Borrowed(b_ref) => Cow::Owned(b_ref.monus(&y)),
            }
        }
        Plan::Product(a, b) => {
            let x = eval_cow(a, src)?;
            let y = eval_cow(b, src)?;
            Cow::Owned(x.product(&y))
        }
        Plan::MinIntersect(a, b) => {
            let x = eval_cow(a, src)?;
            let y = eval_cow(b, src)?;
            Cow::Owned(x.min_intersect(&y))
        }
        Plan::MaxUnion(a, b) => {
            let x = eval_cow(a, src)?;
            let y = eval_cow(b, src)?;
            Cow::Owned(x.max_union(&y))
        }
        Plan::Except(a, b) => {
            let x = eval_cow(a, src)?;
            let y = eval_cow(b, src)?;
            Cow::Owned(x.except_all_occurrences(&y))
        }
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
        } => {
            let l = eval_cow(left, src)?;
            let r = eval_cow(right, src)?;
            Cow::Owned(hash_join(&l, &r, left_keys, right_keys, residual)?)
        }
        Plan::GroupAggregate { keys, aggs, input } => {
            let b = eval_cow(input, src)?;
            Cow::Owned(group_aggregate_bag(&b, keys, aggs))
        }
    })
}

/// Hash equi-join: build on the right side, probe with the left.
/// Multiplicities multiply (checked — an overflow is surfaced as
/// [`crate::AlgebraError::MultiplicityOverflow`], never clamped); `residual`
/// filters the concatenated tuple. Keys are normalized into a reusable
/// scratch buffer and looked up by borrowed slice — no per-tuple key
/// allocation on either the build or the probe side.
fn hash_join(
    left: &Bag,
    right: &Bag,
    left_keys: &[usize],
    right_keys: &[usize],
    residual: &PhysPredicate,
) -> Result<Bag> {
    let mut build: FxHashMap<Box<[Value]>, Vec<(&Tuple, u64)>> = FxHashMap::default();
    build.reserve(right.distinct_len());
    let mut scratch: Vec<Value> = Vec::with_capacity(right_keys.len().max(left_keys.len()));
    for (t, m) in right.iter() {
        if !normalize_key_into(t, right_keys, &mut scratch) {
            continue;
        }
        group_entry(&mut build, &scratch).push((t, m));
    }
    let mut out = Bag::new();
    for (lt, lm) in left.iter() {
        if !normalize_key_into(lt, left_keys, &mut scratch) {
            continue;
        }
        if let Some(matches) = build.get(scratch.as_slice()) {
            for (rt, rm) in matches {
                let joined = lt.concat(rt);
                if residual.eval(&joined) {
                    let m =
                        lm.checked_mul(*rm)
                            .ok_or(crate::AlgebraError::MultiplicityOverflow {
                                left: lm,
                                right: *rm,
                            })?;
                    out.insert_n(joined, m);
                }
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::infer::compile;
    use crate::predicate::{col, lit, Predicate};
    use dvm_storage::{tuple, Schema, TableKind, ValueType};

    fn catalog() -> Catalog {
        let c = Catalog::new();
        let r = c
            .create_table(
                "r",
                Schema::from_pairs(&[("a", ValueType::Int), ("b", ValueType::Int)]),
                TableKind::External,
            )
            .unwrap();
        r.insert(tuple![1, 10]).unwrap();
        r.insert(tuple![1, 10]).unwrap();
        r.insert(tuple![2, 20]).unwrap();
        let s = c
            .create_table(
                "s",
                Schema::from_pairs(&[("b", ValueType::Int), ("c", ValueType::Int)]),
                TableKind::External,
            )
            .unwrap();
        s.insert(tuple![10, 100]).unwrap();
        s.insert(tuple![30, 300]).unwrap();
        c
    }

    fn run(c: &Catalog, e: &Expr) -> Bag {
        let q = compile(e, c).unwrap();
        // Both executors must agree on every query these tests run.
        let pinned = PinnedState::pin_for(c, &q.plan).unwrap();
        let streamed = eval(&q.plan, &pinned).unwrap();
        let reference = eval_reference(&q.plan, &pinned).unwrap();
        assert_eq!(streamed, reference, "executor divergence on {e}");
        streamed
    }

    #[test]
    fn scan_and_filter() {
        let c = catalog();
        let out = run(
            &c,
            &Expr::table("r").select(Predicate::eq(col("a"), lit(1i64))),
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out.multiplicity(&tuple![1, 10]), 2);
    }

    #[test]
    fn join_via_product_preserves_duplicates() {
        let c = catalog();
        // R ⋈ S on r.b = s.b: [1,10] (×2) joins [10,100] → two results
        let e = Expr::table("r")
            .alias("r")
            .product(Expr::table("s").alias("s"))
            .select(Predicate::eq(col("r.b"), col("s.b")))
            .project(["a", "c"]);
        let out = run(&c, &e);
        assert_eq!(out.multiplicity(&tuple![1, 100]), 2);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn self_join_scans_pinned_bag_twice() {
        let c = catalog();
        let e = Expr::table("r")
            .alias("x")
            .product(Expr::table("r").alias("y"))
            .select(Predicate::eq(col("x.a"), col("y.a")));
        let out = run(&c, &e);
        // [1,10]×2 self-join on a=1: 2*2 = 4; plus [2,20]: 1. Total 5.
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn union_monus_dedup() {
        let c = catalog();
        let r = Expr::table("r");
        assert_eq!(run(&c, &r.clone().union(r.clone())).len(), 6);
        assert!(run(&c, &r.clone().monus(r.clone())).is_empty());
        assert_eq!(run(&c, &r.clone().dedup()).len(), 2);
    }

    #[test]
    fn projection_merges_duplicates() {
        let c = catalog();
        let out = run(&c, &Expr::table("r").project(["a"]));
        assert_eq!(out.multiplicity(&tuple![1]), 2);
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn min_max_except() {
        let c = catalog();
        let two = Expr::table("r").union(Expr::table("r"));
        let one = Expr::table("r");
        let mn = run(&c, &two.clone().min_intersect(one.clone()));
        assert_eq!(mn.multiplicity(&tuple![1, 10]), 2);
        let mx = run(&c, &two.clone().max_union(one.clone()));
        assert_eq!(mx.multiplicity(&tuple![1, 10]), 4);
        // EXCEPT removes all occurrences
        let ex = run(
            &c,
            &two.except(Expr::table("r").select(Predicate::eq(col("a"), lit(1i64)))),
        );
        assert_eq!(ex.multiplicity(&tuple![1, 10]), 0);
        assert_eq!(ex.multiplicity(&tuple![2, 20]), 2);
    }

    #[test]
    fn eval_against_snapshot() {
        let c = catalog();
        let snap = c.snapshot();
        // mutate after snapshot
        c.get("r").unwrap().insert(tuple![9, 90]).unwrap();
        let q = compile(&Expr::table("r"), &c).unwrap();
        let now = eval_in_catalog(&q, &c).unwrap();
        let then = eval(&q.plan, &snap).unwrap();
        assert_eq!(now.len(), 4);
        assert_eq!(then.len(), 3, "snapshot sees the past state");
    }

    #[test]
    fn eval_missing_table_in_snapshot_errors() {
        let c = Catalog::new();
        let snap = c.snapshot();
        let plan = Plan::Scan("ghost".to_string());
        assert!(eval(&plan, &snap).is_err());
    }

    #[test]
    fn literal_eval() {
        let c = catalog();
        let s = Schema::from_pairs(&[("a", ValueType::Int), ("b", ValueType::Int)]);
        let e = Expr::literal(Bag::singleton(tuple![7, 70]), s);
        let out = run(&c, &e.union(Expr::table("r")));
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn hash_join_multiplicity_overflow_is_an_error() {
        use crate::AlgebraError;
        let c = Catalog::new();
        for name in ["hl", "hr"] {
            let t = c
                .create_table(
                    name,
                    Schema::from_pairs(&[("k", ValueType::Int)]),
                    TableKind::External,
                )
                .unwrap();
            let mut huge = Bag::new();
            huge.insert_n(tuple![1], u64::MAX / 2);
            t.replace(huge).unwrap();
        }
        let e = Expr::table("hl")
            .alias("l")
            .product(Expr::table("hr").alias("r"))
            .select(Predicate::eq(col("l.k"), col("r.k")));
        let q = compile(&e, &c).unwrap();
        assert!(
            matches!(q.plan, Plan::HashJoin { .. }),
            "equi-join must compile to a hash join for this test to bite"
        );
        let pinned = PinnedState::pin_for(&c, &q.plan).unwrap();
        for result in [eval(&q.plan, &pinned), eval_reference(&q.plan, &pinned)] {
            let err = result.unwrap_err();
            assert!(matches!(err, AlgebraError::MultiplicityOverflow { .. }));
            assert!(err.to_string().contains("overflows u64"));
        }
    }

    #[test]
    fn hash_join_large_but_representable_multiplicities_ok() {
        let c = Catalog::new();
        let mk = |name: &str, m: u64| {
            let t = c
                .create_table(
                    name,
                    Schema::from_pairs(&[("k", ValueType::Int)]),
                    TableKind::External,
                )
                .unwrap();
            let mut b = Bag::new();
            b.insert_n(tuple![1], m);
            t.replace(b).unwrap();
        };
        mk("gl", 1 << 32);
        mk("gr", (1 << 31) - 1);
        let e = Expr::table("gl")
            .alias("l")
            .product(Expr::table("gr").alias("r"))
            .select(Predicate::eq(col("l.k"), col("r.k")));
        let q = compile(&e, &c).unwrap();
        let out = run(&c, &e);
        assert!(matches!(q.plan, Plan::HashJoin { .. }));
        assert_eq!(
            out.multiplicity(&tuple![1, 1]),
            (1u64 << 32) * ((1 << 31) - 1)
        );
    }

    #[test]
    fn hashmap_source() {
        let mut m = HashMap::new();
        m.insert("t".to_string(), Bag::singleton(tuple![1]));
        let plan = Plan::Scan("t".to_string());
        assert_eq!(eval(&plan, &m).unwrap().len(), 1);
        assert!(eval(&Plan::Scan("u".into()), &m).is_err());
    }

    #[test]
    fn null_join_keys_never_join_in_either_executor() {
        // HashMap sources skip schema validation, so NULLs and doubles can
        // sit in "Int" columns — exactly what delta tables may carry.
        let mut m = HashMap::new();
        m.insert(
            "l".to_string(),
            Bag::from_tuples([
                Tuple::new(vec![Value::Null, Value::Int(1)]),
                Tuple::new(vec![Value::Int(7), Value::Int(2)]),
            ]),
        );
        m.insert(
            "r".to_string(),
            Bag::from_tuples([
                Tuple::new(vec![Value::Null, Value::Int(3)]),
                Tuple::new(vec![Value::Int(7), Value::Int(4)]),
            ]),
        );
        let plan = Plan::HashJoin {
            left: Box::new(Plan::Scan("l".into())),
            right: Box::new(Plan::Scan("r".into())),
            left_keys: vec![0],
            right_keys: vec![0],
            residual: PhysPredicate::Const(true),
        };
        let streamed = eval(&plan, &m).unwrap();
        let reference = eval_reference(&plan, &m).unwrap();
        assert_eq!(streamed, reference);
        assert_eq!(streamed.len(), 1, "only the 7=7 pair joins: {streamed}");
    }

    #[test]
    fn int_double_key_coercion_joins_across_types() {
        let mut m = HashMap::new();
        m.insert(
            "l".to_string(),
            Bag::singleton(Tuple::new(vec![Value::Int(2)])),
        );
        m.insert(
            "r".to_string(),
            Bag::singleton(Tuple::new(vec![Value::Double(2.0)])),
        );
        let plan = Plan::HashJoin {
            left: Box::new(Plan::Scan("l".into())),
            right: Box::new(Plan::Scan("r".into())),
            left_keys: vec![0],
            right_keys: vec![0],
            residual: PhysPredicate::Const(true),
        };
        let streamed = eval(&plan, &m).unwrap();
        let reference = eval_reference(&plan, &m).unwrap();
        assert_eq!(streamed, reference);
        assert_eq!(streamed.len(), 1, "Int(2) must hash-join Double(2.0)");
    }

    /// The maintenance hot-path shape: a small internal (log-like) table
    /// joined with a base table that keeps an index on the join key. The
    /// log side is built, its key set reaches the base scan, and the base
    /// is probed by key — through typed writes, which keep the index, and
    /// a raw write, which drops it until the next probe rebuilds it — and
    /// every answer is the reference evaluator's.
    #[test]
    fn key_set_at_an_indexed_base_scan_is_looked_up() {
        let c = Catalog::new();
        let base = c
            .create_table(
                "base",
                Schema::from_pairs(&[("a", ValueType::Int), ("b", ValueType::Int)]),
                TableKind::External,
            )
            .unwrap();
        for i in 0..50i64 {
            base.insert(tuple![i % 10, i]).unwrap();
        }
        base.insert(tuple![Value::Null, 99]).unwrap(); // NULL key: never joins
        let log = c
            .create_table(
                "lg",
                Schema::from_pairs(&[("a", ValueType::Int), ("c", ValueType::Int)]),
                TableKind::Internal,
            )
            .unwrap();
        // σ_{b<40}(base) ⋈_{a=a} lg, with a residual over both sides.
        let e = Expr::table("base")
            .alias("l")
            .product(Expr::table("lg").alias("r"))
            .select(
                Predicate::eq(col("l.a"), col("r.a"))
                    .and(Predicate::lt(col("l.b"), lit(40i64)))
                    .and(Predicate::ne(col("l.b"), col("r.c"))),
            );
        let q = compile(&e, &c).unwrap();
        let probed = probed_scans(&q.plan);
        assert!(
            probed.contains(&("base".to_string(), vec![0])),
            "{probed:?}"
        );
        base.register_index(&[0]);

        for round in 0..4i64 {
            let mut fresh = Bag::new();
            fresh.insert_n(tuple![round % 10, round], 2);
            fresh.insert(tuple![(round + 1) % 10, 40 + round]);
            fresh.insert(tuple![Value::Null, 7]);
            log.replace(fresh).unwrap();
            match round {
                1 => base.insert(tuple![1, 1]).unwrap(),
                2 => base
                    .apply_delta(&Bag::singleton(tuple![2, 2]), &Bag::singleton(tuple![3, 7]))
                    .unwrap(),
                3 => base.write().insert(tuple![4, 4]),
                _ => {}
            }
            let pinned = PinnedState::pin_for(&c, &q.plan).unwrap();
            let unshared = SharedPlans::default();
            let (streamed, tree) = eval_probed(&q.plan, &Cx::new(&pinned, &unshared)).unwrap();
            assert_eq!(streamed, eval_reference(&q.plan, &pinned).unwrap());
            assert!(!streamed.is_empty(), "round {round} joined something");
            assert!(tree_contains(&tree, "IndexJoin base"), "{}", tree.render());
            assert!(!tree_contains(&tree, "Scan base"), "{}", tree.render());
        }
        let stats = &base.index_stats()[0];
        assert_eq!(stats.cols, vec![0]);
        assert!(stats.probes >= 8, "two keys looked up per round: {stats:?}");
        assert_eq!(stats.entries, 10, "one entry per non-NULL key");
    }

    /// Search an annotated tree for an exact label.
    fn tree_contains(p: &OpProf, label: &str) -> bool {
        p.nodes().iter().any(|n| n.label == label)
    }

    /// Probe on ≡ probe off ≡ index probe, as a property: over random
    /// plans (NULL join keys, Int/Double keys, aggregates, EXCEPT, every
    /// breaker) evaluated over a catalog whose tables keep an index on
    /// every key set the plan can push — `t0` bound as a parameter, so it
    /// has none — the probed run returns the bag the unprobed run and the
    /// reference oracle do, plus a well-formed tree: exclusive times
    /// telescope to the root and the root accounts for every result tuple.
    #[test]
    fn probe_on_matches_probe_off_on_random_plans() {
        use crate::testgen::{Rng, Universe};
        let u = Universe::mixed(3);
        let provider = u.provider();
        let indexed_cases = std::sync::atomic::AtomicUsize::new(0);
        dvm_testkit::Prop::new("probe_on_matches_probe_off_on_random_plans")
            .cases(400)
            .run(|rng| {
                let state = u.state(rng, 5);
                // `Universe::expr` rarely draws an equality between the two
                // sides of its join shape, so a third of the cases force one
                // (over NULL-bearing Int/Double key columns).
                let e = match rng.below(3) {
                    0 => u.agg_expr(rng, 2),
                    1 => u.expr(rng, 3),
                    _ => {
                        let key = |rng: &mut Rng, side: &str| {
                            let column = if rng.chance(1, 2) { "a" } else { "b" };
                            col(&format!("{side}.{column}"))
                        };
                        let on = Predicate::eq(key(rng, "l"), key(rng, "r"));
                        (u.expr(rng, 2).alias("l"))
                            .product(u.expr(rng, 2).alias("r"))
                            .select(on.and(u.predicate(rng, &["l", "r"])))
                            .project(["l.a", "r.b"])
                    }
                };
                let plan = compile(&e, &provider).expect("typecheck").plan;
                let catalog = Catalog::new();
                for (name, bag) in &state {
                    let schema = provider[name].clone();
                    let table = catalog
                        .create_table(name.clone(), schema, TableKind::External)
                        .unwrap();
                    // Raw: the generator's NULLs and doubles skip validation.
                    **table.write() = bag.clone();
                }
                for (name, cols) in probed_scans(&plan) {
                    catalog.require(&name).unwrap().register_index(&cols);
                }
                let src = ParamSource::pin(&catalog, &plan.tables(), [("t0", &state["t0"])])
                    .expect("pin");

                let unshared = SharedPlans::default();
                let cx = Cx::new(&src, &unshared);
                let (cold, cold_tree) = eval_probed(&plan, &cx).expect("probed eval");
                let (warm, warm_tree) = eval_probed(&plan, &cx).expect("probed eval");
                let plain = eval_to_bag(&plan, &cx, None, None).expect("unprobed eval");
                let reference = eval_reference(&plan, &state).expect("reference eval");
                assert_eq!(cold, reference, "probed (building) vs reference on {e}");
                assert_eq!(warm, reference, "probed (built) vs reference on {e}");
                assert_eq!(*plain, reference, "unprobed vs reference on {e}");

                for tree in [&cold_tree, &warm_tree] {
                    assert_eq!(
                        tree.total_exclusive_nanos(),
                        tree.nanos,
                        "exclusive times telescope to the root on {e}: {}",
                        tree.render()
                    );
                    // A materialized root reports its bag; a streamed root
                    // counts the pairs it yielded, which the result bag
                    // may merge (projection, union) but never loses.
                    let distinct = cold.distinct_len() as u64;
                    match plan {
                        Plan::Filter(..)
                        | Plan::Project(..)
                        | Plan::Union(..)
                        | Plan::HashJoin { .. } => {
                            assert!(tree.rows_out >= distinct, "{e}: {}", tree.render())
                        }
                        _ => assert_eq!(tree.rows_out, distinct, "{e}: {}", tree.render()),
                    }
                }
                let probe =
                    |tree: &OpProf| tree.nodes().iter().any(|n| n.label.starts_with("Index"));
                assert_eq!(probe(&cold_tree), probe(&warm_tree), "{e}");
                if probe(&cold_tree) {
                    indexed_cases.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            });
        assert!(
            indexed_cases.load(std::sync::atomic::Ordering::Relaxed) > 20,
            "the generator must keep reaching indexed scans ({indexed_cases:?})"
        );
    }

    #[test]
    fn profiling_off_captures_nothing() {
        let c = catalog();
        dvm_obs::set_profiling(false);
        let _ = dvm_obs::profile::take_captured();
        let q = compile(&Expr::table("r").project(["a"]), &c).unwrap();
        eval_in_catalog(&q, &c).unwrap();
        assert!(dvm_obs::profile::take_captured().is_empty());
    }
}
