//! Broadcast schemes: the output of every algorithm in this crate.
//!
//! A broadcast scheme assigns a transfer rate `c_{i,j}` to every ordered pair of nodes.
//! Following Section II-D of the paper, a scheme is feasible when every node respects its
//! outgoing-bandwidth budget and no guarded node sends to another guarded node, and its
//! throughput is the minimum over all receivers of the maximum flow from the source in the
//! weighted digraph `c`.
//!
//! # Storage: one sorted row per sender
//!
//! Real schemes are sparse. The acyclic construction of Lemma 4.6 gives every node an
//! outdegree of at most `⌈b_i / T⌉ + 1`, so a solved 2000-receiver scheme has about 4,000
//! edges out of 4,004,001 ordered pairs. A scheme therefore stores one row per sender:
//! `rows[from]` is a `Vec<(to, rate)>` sorted by receiver. A row holds every nonzero rate
//! that was set, dust below [`RATE_EPS`] included; only exact zeros are dropped, so an
//! absent pair reads as `0.0` and [`BroadcastScheme::prune_dust`] keeps its meaning.
//!
//! Walking the rows in order yields the stored rates in row-major order, the order a dense
//! `n × n` scan visits them, so everything derived from that walk is bit-identical to a
//! dense scan. With `m` stored rates:
//!
//! * O(n + m): [`BroadcastScheme::edges`] and [`BroadcastScheme::edges_into`] (which feed
//!   the flow arenas), [`BroadcastScheme::validate`] (same violations, same order),
//!   [`BroadcastScheme::topological_order`], [`BroadcastScheme::prune_dust`],
//!   [`BroadcastScheme::outdegrees`], clone, equality and (de)serialization;
//! * one row: [`BroadcastScheme::rate`], [`BroadcastScheme::set_rate`] and
//!   [`BroadcastScheme::add_rate`] (a binary search, plus a shift when an entry appears or
//!   disappears), [`BroadcastScheme::sent`], [`BroadcastScheme::outdegree`] and
//!   [`BroadcastScheme::out_edges`];
//! * O(n log row): [`BroadcastScheme::received`], the only column query.
//!
//! # Document format
//!
//! A scheme serializes as format 2: `{"format": 2, "instance": …, "edges": [[from, to,
//! rate], …]}`, one triple per stored rate in row-major order (the triple encoding the
//! controller snapshots of the simulator use for their deployed edges). The reader also
//! accepts the dense documents written before format 2, `{"instance": …, "rates": [c_00,
//! c_01, …]}` with no `format` field and `n²` row-major rates, so files already on disk
//! still load.
//!
//! A malformed document is a typed [`serde::DeError`], never a panic: a dense matrix whose
//! length is not `n²`, an endpoint `≥ n`, a repeated `(from, to)` pair, an entry that is
//! not a `[from, to, rate]` triple, a rate that is not finite (`1e400` overflows to
//! infinity), or an unknown `format`. A stored self-rate `c_{i,i}` is read like any
//! other hand-edited value: the setters forbid it, and [`BroadcastScheme::validate`]
//! flags it and charges it to the sender's bandwidth.
//!
//! # Evaluation
//!
//! [`crate::solver::EvalCtx`] is the only code that turns a scheme into a flow network.
//! [`BroadcastScheme::throughput`] is a one-line convenience over a fresh, sequential
//! context, so each call allocates its arena and solver buffers anew. Loops that score many schemes over the same instance should hold
//! one context, which rebuilds its arena in the buffers of the previous evaluation:
//!
//! ```
//! use bmp_core::scheme::BroadcastScheme;
//! use bmp_core::solver::EvalCtx;
//! use bmp_platform::Instance;
//!
//! let instance = Instance::open_only(4.0, vec![2.0, 1.0]).unwrap();
//! let mut scheme = BroadcastScheme::new(instance);
//! scheme.set_rate(0, 1, 2.0);
//! scheme.set_rate(0, 2, 1.0);
//! scheme.set_rate(1, 2, 1.0);
//! assert_eq!(scheme.throughput(), 2.0);
//!
//! let mut ctx = EvalCtx::new();
//! for step in 1..=4 {
//!     let rate = 2.0 - 0.25 * f64::from(step);
//!     scheme.set_rate(0, 1, rate); // node 1 now receives less than node 2
//!     assert_eq!(ctx.throughput(&scheme), rate);
//!     assert_eq!(ctx.throughput(&scheme), scheme.throughput());
//! }
//! ```

use crate::solver::EvalCtx;
use bmp_flow::eps;
use bmp_platform::node::degree_lower_bound;
use bmp_platform::{Instance, NodeClass, NodeId};

/// Rates below this threshold are treated as "no connection" when counting outdegrees and
/// building flow networks; they only arise from floating-point dust.
pub const RATE_EPS: f64 = 1e-7;

/// The document format [`BroadcastScheme`] serializes to (see the module docs).
const DOCUMENT_FORMAT: i64 = 2;

/// A feasibility violation detected by [`BroadcastScheme::validate`].
#[derive(Debug, Clone, PartialEq)]
pub enum SchemeViolation {
    /// Node `node` sends more than its outgoing bandwidth.
    BandwidthExceeded {
        /// Offending node.
        node: NodeId,
        /// Total outgoing rate of the node.
        sent: f64,
        /// Outgoing bandwidth of the node.
        bandwidth: f64,
    },
    /// A guarded → guarded transfer has a positive rate.
    FirewallViolated {
        /// Sending guarded node.
        from: NodeId,
        /// Receiving guarded node.
        to: NodeId,
    },
    /// A rate is negative or not finite.
    InvalidRate {
        /// Sending node.
        from: NodeId,
        /// Receiving node.
        to: NodeId,
        /// The offending value.
        rate: f64,
    },
}

/// One sender's stored rates: `(to, rate)` pairs sorted by `to`, no exact zeros.
type Row = Vec<(NodeId, f64)>;

/// A broadcast scheme over a given instance.
#[derive(Debug, Clone, PartialEq)]
pub struct BroadcastScheme {
    instance: Instance,
    /// `rows[from]`: the nonzero rates `from` sends (see the module docs).
    rows: Vec<Row>,
}

impl serde::Serialize for BroadcastScheme {
    /// Writes document format 2: `format`, `instance` and the row-major `edges` triples
    /// of every stored rate (see the module docs).
    fn to_value(&self) -> serde::Value {
        let edges = self
            .stored_rates()
            .map(|triple| serde::Serialize::to_value(&triple))
            .collect();
        serde::Value::Object(vec![
            ("format".to_string(), serde::Value::I64(DOCUMENT_FORMAT)),
            (
                "instance".to_string(),
                serde::Serialize::to_value(&self.instance),
            ),
            ("edges".to_string(), serde::Value::Array(edges)),
        ])
    }
}

impl serde::Deserialize for BroadcastScheme {
    /// Reads format 2 or a dense document without a `format` field, rejecting malformed
    /// rates with a typed error.
    fn from_value(value: &serde::Value) -> Result<Self, serde::DeError> {
        let obj = value
            .as_object()
            .ok_or_else(|| serde::DeError::expected("map", "BroadcastScheme"))?;
        let instance: Instance =
            serde::Deserialize::from_value(serde::field(obj, "instance", "BroadcastScheme")?)?;
        let n = instance.num_nodes();
        let format = obj.iter().find(|(key, _)| key == "format").map(|(_, v)| v);
        let rows = match format {
            None => rows_from_dense(serde::field(obj, "rates", "BroadcastScheme")?, n)?,
            Some(format) if format.as_i64() == Some(DOCUMENT_FORMAT) => {
                rows_from_edges(serde::field(obj, "edges", "BroadcastScheme")?, n)?
            }
            Some(_) => {
                return Err(serde::DeError::custom(format!(
                    "unknown scheme document format (this reader knows format \
                     {DOCUMENT_FORMAT} and dense documents without a `format` field)"
                )))
            }
        };
        Ok(BroadcastScheme { instance, rows })
    }
}

/// Rows of a dense document: `n²` row-major rates.
fn rows_from_dense(rates: &serde::Value, n: usize) -> Result<Vec<Row>, serde::DeError> {
    let rates: Vec<f64> = serde::Deserialize::from_value(rates)?;
    if Some(rates.len()) != n.checked_mul(n) {
        return Err(serde::DeError::custom(format!(
            "dense scheme has {} rates, expected {n}×{n}",
            rates.len()
        )));
    }
    let mut rows = vec![Row::new(); n];
    for (idx, rate) in rates.into_iter().enumerate() {
        finite_rate(idx / n, idx % n, rate)?;
        if rate != 0.0 {
            rows[idx / n].push((idx % n, rate));
        }
    }
    Ok(rows)
}

/// `rate` if it is finite: JSON has no infinity, but an overflowing literal such as
/// `1e400` reads as one, and no flow network or bandwidth check can take it.
fn finite_rate(from: NodeId, to: NodeId, rate: f64) -> Result<f64, serde::DeError> {
    if rate.is_finite() {
        Ok(rate)
    } else {
        Err(serde::DeError::custom(format!(
            "scheme edge ({from}, {to}) has a non-finite rate {rate}"
        )))
    }
}

/// Rows of a format-2 document: `[from, to, rate]` triples, each pair at most once.
fn rows_from_edges(edges: &serde::Value, n: usize) -> Result<Vec<Row>, serde::DeError> {
    let edges = edges
        .as_array()
        .ok_or_else(|| serde::DeError::expected("array", "scheme edges"))?;
    let node = |value: &serde::Value| -> Result<NodeId, serde::DeError> {
        let id: NodeId = serde::Deserialize::from_value(value)?;
        if id < n {
            Ok(id)
        } else {
            Err(serde::DeError::custom(format!(
                "scheme edge endpoint {id} out of range for {n} nodes"
            )))
        }
    };
    let mut rows = vec![Row::new(); n];
    for (index, edge) in edges.iter().enumerate() {
        let Some([from, to, rate]) = edge.as_array() else {
            return Err(serde::DeError::custom(format!(
                "scheme edge #{index} is not a [from, to, rate] triple"
            )));
        };
        let (from, to) = (node(from)?, node(to)?);
        let rate = finite_rate(from, to, serde::Deserialize::from_value(rate)?)?;
        rows[from].push((to, rate));
    }
    for (from, row) in rows.iter_mut().enumerate() {
        row.sort_unstable_by_key(|&(to, _)| to);
        if let Some(pair) = row.windows(2).find(|pair| pair[0].0 == pair[1].0) {
            return Err(serde::DeError::custom(format!(
                "scheme edge ({from}, {}) appears more than once",
                pair[0].0
            )));
        }
        row.retain(|&(_, rate)| rate != 0.0);
    }
    Ok(rows)
}

impl BroadcastScheme {
    /// Creates an all-zero scheme for `instance`.
    #[must_use]
    pub fn new(instance: Instance) -> Self {
        let rows = vec![Row::new(); instance.num_nodes()];
        BroadcastScheme { instance, rows }
    }

    /// The underlying instance.
    #[must_use]
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Transfer rate `c_{from,to}`.
    #[must_use]
    pub fn rate(&self, from: NodeId, to: NodeId) -> f64 {
        let row = &self.rows[from];
        row.binary_search_by_key(&to, |&(to, _)| to)
            .map_or(0.0, |pos| row[pos].1)
    }

    /// Sets the transfer rate `c_{from,to}` (an exact zero drops the entry).
    ///
    /// # Panics
    ///
    /// Panics if `from == to` or either node is out of range.
    pub fn set_rate(&mut self, from: NodeId, to: NodeId, rate: f64) {
        assert_ne!(from, to, "a node cannot send to itself");
        let n = self.instance.num_nodes();
        assert!(to < n, "receiver {to} out of range for {n} nodes");
        let row = &mut self.rows[from];
        match row.binary_search_by_key(&to, |&(to, _)| to) {
            Ok(pos) if rate == 0.0 => {
                row.remove(pos);
            }
            Ok(pos) => row[pos].1 = rate,
            Err(pos) if rate != 0.0 => row.insert(pos, (to, rate)),
            Err(_) => {}
        }
    }

    /// Adds `delta` to the transfer rate `c_{from,to}` (clamping tiny negative results to 0).
    ///
    /// # Panics
    ///
    /// Panics if `from == to` or either node is out of range.
    pub fn add_rate(&mut self, from: NodeId, to: NodeId, delta: f64) {
        let new = eps::clamp_nonnegative(self.rate(from, to) + delta);
        self.set_rate(from, to, new);
    }

    /// Total rate sent by `node`.
    #[must_use]
    pub fn sent(&self, node: NodeId) -> f64 {
        self.rows[node]
            .iter()
            .fold(0.0, |sum, &(_, rate)| sum + rate)
    }

    /// Total rate received by `node`.
    #[must_use]
    pub fn received(&self, node: NodeId) -> f64 {
        (0..self.instance.num_nodes())
            .map(|i| self.rate(i, node))
            .sum()
    }

    /// Remaining outgoing bandwidth of `node` (can be slightly negative due to rounding).
    #[must_use]
    pub fn remaining(&self, node: NodeId) -> f64 {
        self.instance.bandwidth(node) - self.sent(node)
    }

    /// Outdegree of `node`: the number of its [`BroadcastScheme::out_edges`], so a
    /// self-rate (which only a hand-edited document can carry) is never counted.
    #[must_use]
    pub fn outdegree(&self, node: NodeId) -> usize {
        self.out_edges(node).count()
    }

    /// The edges leaving `node` as `(to, rate)` pairs in receiver order: its rates above
    /// [`RATE_EPS`], like [`BroadcastScheme::edges`], without scanning the other nodes.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.rows[node]
            .iter()
            .copied()
            .filter(move |&(to, rate)| rate > RATE_EPS && to != node)
    }

    /// The *busiest relay*: the receiver with the largest outdegree (ties broken by the
    /// highest id), or `None` when the instance has no receivers. This is the adversarial
    /// churn victim used throughout the churn analysis, the experiments and the CLI's
    /// `--churn "T:busiest"` token — removing it severs the most subtrees.
    #[must_use]
    pub fn busiest_receiver(&self) -> Option<NodeId> {
        (1..self.instance.num_nodes()).max_by_key(|&node| self.outdegree(node))
    }

    /// Outdegrees of every node, source first.
    #[must_use]
    pub fn outdegrees(&self) -> Vec<usize> {
        (0..self.instance.num_nodes())
            .map(|i| self.outdegree(i))
            .collect()
    }

    /// Slack of `node`'s outdegree over the lower bound `⌈b_i / T⌉` for throughput `T`.
    ///
    /// The paper measures the quality of a scheme by this additive excess (`+1`, `+2`, `+3`
    /// depending on the algorithm).
    #[must_use]
    pub fn degree_excess(&self, node: NodeId, throughput: f64) -> i64 {
        self.outdegree(node) as i64
            - degree_lower_bound(self.instance.bandwidth(node), throughput) as i64
    }

    /// Maximum degree excess over all nodes.
    #[must_use]
    pub fn max_degree_excess(&self, throughput: f64) -> i64 {
        (0..self.instance.num_nodes())
            .map(|i| self.degree_excess(i, throughput))
            .max()
            .unwrap_or(0)
    }

    /// Checks bandwidth, firewall and rate-validity constraints. Returns all violations,
    /// row by row in receiver order.
    #[must_use]
    pub fn validate(&self) -> Vec<SchemeViolation> {
        let mut violations = Vec::new();
        // Single pass over the stored rates: per-row totals are accumulated inline instead
        // of re-scanning each row through `sent`.
        for (from, row) in self.rows.iter().enumerate() {
            let from_guarded = self.instance.class(from) == NodeClass::Guarded;
            let mut sent = 0.0;
            for &(to, rate) in row {
                sent += rate;
                if from == to {
                    // The setters forbid self-loops, but a deserialized document can carry
                    // one; it still consumes bandwidth (summed above) and is invalid.
                    violations.push(SchemeViolation::InvalidRate { from, to, rate });
                    continue;
                }
                if !rate.is_finite() || rate < -RATE_EPS {
                    violations.push(SchemeViolation::InvalidRate { from, to, rate });
                }
                if rate > RATE_EPS && from_guarded && self.instance.class(to) == NodeClass::Guarded
                {
                    violations.push(SchemeViolation::FirewallViolated { from, to });
                }
            }
            let bandwidth = self.instance.bandwidth(from);
            // A row whose sum overflows sends more than any finite bandwidth, but the
            // relative tolerance of `approx_le` grows with `sent` and would accept it.
            if !sent.is_finite() || !eps::approx_le(sent, bandwidth) {
                violations.push(SchemeViolation::BandwidthExceeded {
                    node: from,
                    sent,
                    bandwidth,
                });
            }
        }
        violations
    }

    /// Whether the scheme satisfies all feasibility constraints.
    #[must_use]
    pub fn is_feasible(&self) -> bool {
        self.validate().is_empty()
    }

    /// Every stored rate as a `(from, to, rate)` triple in row-major order, dust and any
    /// deserialized diagonal included.
    fn stored_rates(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(from, row)| row.iter().map(move |&(to, rate)| (from, to, rate)))
    }

    /// The nonzero rates as `(from, to, rate)` triples, skipping dust and the diagonal —
    /// the single definition of "which edges exist" shared by every graph view below.
    fn nonzero_rates(&self) -> impl Iterator<Item = (NodeId, NodeId, f64)> + '_ {
        self.stored_rates()
            .filter(|&(from, to, rate)| rate > RATE_EPS && from != to)
    }

    /// Throughput of the scheme: `min_k maxflow(C0 → Ck)` over all receivers (Section II-D),
    /// [`EvalCtx::throughput`] on a fresh context, whose fan-out follows the platform size
    /// like every other evaluation (the value does not depend on it).
    #[must_use]
    pub fn throughput(&self) -> f64 {
        EvalCtx::new().throughput(self)
    }

    /// Topological order of the scheme's digraph if it is acyclic, `None` otherwise.
    ///
    /// The returned order always starts with the source when the source has no incoming
    /// edges (which is the case for every scheme built by this crate).
    #[must_use]
    pub fn topological_order(&self) -> Option<Vec<NodeId>> {
        let n = self.instance.num_nodes();
        // One pass over the nonzero rates builds the adjacency lists and indegrees; the
        // Kahn loop below then touches only actual edges instead of rescanning the rows.
        let mut indegree = vec![0usize; n];
        let mut successors: Vec<Vec<NodeId>> = vec![Vec::new(); n];
        for (from, to, _) in self.nonzero_rates() {
            indegree[to] += 1;
            successors[from].push(to);
        }
        // Kahn's algorithm, preferring smaller indices for determinism.
        let mut order = Vec::with_capacity(n);
        let mut ready: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
            .filter(|&v| indegree[v] == 0)
            .map(std::cmp::Reverse)
            .collect();
        while let Some(std::cmp::Reverse(v)) = ready.pop() {
            order.push(v);
            for &to in &successors[v] {
                indegree[to] -= 1;
                if indegree[to] == 0 {
                    ready.push(std::cmp::Reverse(to));
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// Whether the scheme's digraph is acyclic.
    #[must_use]
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }

    /// Removes rates below [`RATE_EPS`] (floating-point dust) from the rows.
    ///
    /// Dust is never an edge ([`BroadcastScheme::edges`] and the flow views share the
    /// strict `> RATE_EPS` threshold), so dropping it changes neither the edge set nor any
    /// edge capacity.
    pub fn prune_dust(&mut self) {
        for row in &mut self.rows {
            row.retain(|&(_, rate)| rate > RATE_EPS || rate.is_nan());
        }
    }

    /// Edges of the scheme as `(from, to, rate)` triples, skipping dust (one pass over the
    /// nonzero rates).
    #[must_use]
    pub fn edges(&self) -> Vec<(NodeId, NodeId, f64)> {
        self.nonzero_rates().collect()
    }

    /// Like [`BroadcastScheme::edges`], but writing into `buf` (cleared first) so repeat
    /// callers — [`EvalCtx`], which rebuilds its arena from this list on every
    /// evaluation — reuse one allocation across evaluations.
    pub fn edges_into(&self, buf: &mut Vec<(NodeId, NodeId, f64)>) {
        buf.clear();
        buf.extend(self.nonzero_rates());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_platform::paper::figure1;

    /// An optimal cyclic scheme of throughput 4.4 for the Figure 1 instance (the rates differ
    /// from the paper's drawing but saturate the same bound of Lemma 5.1: every node receives
    /// exactly 4.4 and every unit of outgoing bandwidth is used).
    fn figure1_optimal_scheme() -> BroadcastScheme {
        let mut s = BroadcastScheme::new(figure1());
        // Source (b0 = 6).
        s.set_rate(0, 1, 0.2);
        s.set_rate(0, 3, 3.4);
        s.set_rate(0, 4, 1.2);
        s.set_rate(0, 5, 1.2);
        // Open node C1 (b1 = 5).
        s.set_rate(1, 2, 0.8);
        s.set_rate(1, 3, 1.0);
        s.set_rate(1, 4, 1.6);
        s.set_rate(1, 5, 1.6);
        // Open node C2 (b2 = 5).
        s.set_rate(2, 1, 1.8);
        s.set_rate(2, 4, 1.6);
        s.set_rate(2, 5, 1.6);
        // Guarded nodes relay towards the open nodes.
        s.set_rate(3, 1, 2.4);
        s.set_rate(3, 2, 1.6);
        s.set_rate(4, 2, 1.0);
        s.set_rate(5, 2, 1.0);
        s
    }

    #[test]
    fn rates_and_sums() {
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(0, 1, 2.0);
        s.set_rate(0, 2, 3.0);
        s.add_rate(0, 1, 1.0);
        assert_eq!(s.rate(0, 1), 3.0);
        assert_eq!(s.sent(0), 6.0);
        assert_eq!(s.received(1), 3.0);
        assert_eq!(s.remaining(0), 0.0);
        assert_eq!(s.outdegree(0), 2);
        assert_eq!(s.outdegrees(), vec![2, 0, 0, 0, 0, 0]);
    }

    #[test]
    #[should_panic(expected = "cannot send to itself")]
    fn self_loop_rejected() {
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(1, 1, 1.0);
    }

    #[test]
    fn validation_catches_bandwidth_excess() {
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(4, 1, 2.0); // node 4 has bandwidth 1
        let violations = s.validate();
        assert!(violations
            .iter()
            .any(|v| matches!(v, SchemeViolation::BandwidthExceeded { node: 4, .. })));
        assert!(!s.is_feasible());
    }

    #[test]
    fn validation_catches_bandwidth_excess_when_the_sum_overflows() {
        let big = 1.5e308;
        let instance = Instance::open_only(big, vec![big, big]).unwrap();
        let mut s = BroadcastScheme::new(instance);
        for (from, to) in [(0, 1), (0, 2), (1, 2), (2, 1)] {
            s.set_rate(from, to, big);
        }
        // The source sends twice its bandwidth, and its row sum overflows to infinity.
        let exceeded: Vec<NodeId> = s
            .validate()
            .iter()
            .filter_map(|v| match v {
                SchemeViolation::BandwidthExceeded { node, .. } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(exceeded, vec![0]);
    }

    #[test]
    fn validation_catches_firewall_violation() {
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(3, 4, 0.5); // both guarded
        assert!(s
            .validate()
            .iter()
            .any(|v| matches!(v, SchemeViolation::FirewallViolated { from: 3, to: 4 })));
    }

    #[test]
    fn validation_catches_negative_rate() {
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(0, 1, -1.0);
        assert!(s
            .validate()
            .iter()
            .any(|v| matches!(v, SchemeViolation::InvalidRate { .. })));
    }

    #[test]
    fn empty_scheme_is_feasible_with_zero_throughput() {
        let s = BroadcastScheme::new(figure1());
        assert!(s.is_feasible());
        assert_eq!(s.throughput(), 0.0);
        assert!(s.is_acyclic());
    }

    #[test]
    fn figure1_scheme_reaches_announced_throughput() {
        let s = figure1_optimal_scheme();
        assert!(s.is_feasible(), "violations: {:?}", s.validate());
        let throughput = s.throughput();
        assert!(
            (throughput - 4.4).abs() < 1e-9,
            "throughput = {throughput}, expected 4.4"
        );
        // The scheme of Figure 1 is cyclic (e.g. C1 → C2 and C2 → C1).
        assert!(!s.is_acyclic());
    }

    #[test]
    fn figure2_acyclic_scheme() {
        // An acyclic scheme following the order 0 3 1 2 4 5 of Figure 2, throughput 4.
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(0, 3, 4.0);
        s.set_rate(0, 2, 2.0);
        s.set_rate(3, 1, 4.0);
        s.set_rate(1, 2, 2.0);
        s.set_rate(1, 4, 3.0);
        s.set_rate(2, 4, 1.0);
        s.set_rate(2, 5, 4.0);
        assert!(s.is_feasible(), "violations: {:?}", s.validate());
        assert!(s.is_acyclic());
        let throughput = s.throughput();
        assert!(
            (throughput - 4.0).abs() < 1e-9,
            "throughput = {throughput}, expected 4"
        );
        let order = s.topological_order().unwrap();
        assert_eq!(order[0], 0);
        // Node 3 must appear before node 1 because it feeds it.
        let pos3 = order.iter().position(|&v| v == 3).unwrap();
        let pos1 = order.iter().position(|&v| v == 1).unwrap();
        assert!(pos3 < pos1);
    }

    #[test]
    fn degree_excess_matches_definition() {
        let s = figure1_optimal_scheme();
        // Source: bandwidth 6, T = 4.4 → ⌈6/4.4⌉ = 2; it serves 4 nodes in this scheme.
        assert_eq!(s.outdegree(0), 4);
        assert_eq!(s.degree_excess(0, 4.4), 4 - 2);
        // Guarded node C4 has bandwidth 1 → ⌈1/4.4⌉ = 1; it serves exactly one node.
        assert_eq!(s.degree_excess(4, 4.4), 0);
        assert!(s.max_degree_excess(4.4) >= 2);
    }

    #[test]
    fn prune_dust_removes_tiny_rates() {
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(0, 1, 1e-12);
        s.set_rate(0, 2, 2.0);
        s.prune_dust();
        assert_eq!(s.rate(0, 1), 0.0);
        assert_eq!(s.rate(0, 2), 2.0);
        assert_eq!(s.edges(), vec![(0, 2, 2.0)]);
    }

    /// Acceptance check for the batched evaluator: on the paper's Figure 1 (throughput
    /// 4.4) and Figure 2 (throughput 4.0) schemes, the batched multi-sink evaluation must
    /// equal the naive per-receiver minimum bit-for-bit.
    #[test]
    fn batched_throughput_equals_naive_on_paper_schemes() {
        let figure2_scheme = {
            let mut s = BroadcastScheme::new(figure1());
            s.set_rate(0, 3, 4.0);
            s.set_rate(0, 2, 2.0);
            s.set_rate(3, 1, 4.0);
            s.set_rate(1, 2, 2.0);
            s.set_rate(1, 4, 3.0);
            s.set_rate(2, 4, 1.0);
            s.set_rate(2, 5, 4.0);
            s
        };
        for (scheme, expected) in [(figure1_optimal_scheme(), 4.4), (figure2_scheme, 4.0)] {
            let mut ctx = EvalCtx::new();
            let naive = scheme
                .instance()
                .receivers()
                .map(|k| ctx.max_flow_to(&scheme, k))
                .fold(f64::INFINITY, f64::min);
            let batched = scheme.throughput();
            assert_eq!(batched, naive, "batched {batched} vs naive {naive}");
            assert!(
                (batched - expected).abs() < 1e-9,
                "expected {expected}, got {batched}"
            );
        }
    }

    #[test]
    fn max_flow_to_individual_receiver() {
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(0, 1, 3.0);
        s.set_rate(1, 2, 2.0);
        let mut ctx = EvalCtx::new();
        assert!((ctx.max_flow_to(&s, 1) - 3.0).abs() < 1e-9);
        assert!((ctx.max_flow_to(&s, 2) - 2.0).abs() < 1e-9);
        assert_eq!(ctx.max_flow_to(&s, 5), 0.0);
    }

    /// The dense document `scheme` would have been written as before format 2.
    fn dense_document(scheme: &BroadcastScheme) -> serde::Value {
        let n = scheme.instance().num_nodes();
        let rates: Vec<f64> = (0..n * n)
            .map(|idx| scheme.rate(idx / n, idx % n))
            .collect();
        serde::Value::Object(vec![
            (
                "instance".to_string(),
                serde::Serialize::to_value(scheme.instance()),
            ),
            ("rates".to_string(), serde::Serialize::to_value(&rates)),
        ])
    }

    /// The array field `name` of a scheme document, for editing it by hand.
    fn array_field<'a>(document: &'a mut serde::Value, name: &str) -> &'a mut Vec<serde::Value> {
        let serde::Value::Object(fields) = document else {
            panic!("a scheme document is an object");
        };
        match fields.iter_mut().find(|(key, _)| key == name) {
            Some((_, serde::Value::Array(items))) => items,
            _ => panic!("no array field `{name}`"),
        }
    }

    /// Reads an edited document back through its JSON text, like a hand-edited file.
    fn reparse(document: &serde::Value) -> serde_json::Result<BroadcastScheme> {
        serde_json::from_str(&serde_json::to_string(document).unwrap())
    }

    #[test]
    fn validate_rejects_deserialized_self_loop() {
        // A hand-edited document can put rate mass on the diagonal, which the setters
        // forbid; validation must flag it (and count it against the sender's bandwidth),
        // whichever document format carried it.
        let empty = BroadcastScheme::new(figure1());
        let mut sparse = serde::Serialize::to_value(&empty);
        array_field(&mut sparse, "edges").push(serde::Serialize::to_value(&(0, 0, 1000.0)));
        let mut dense = dense_document(&empty);
        array_field(&mut dense, "rates")[0] = serde::Value::F64(1000.0); // c_{0,0}
        for document in [sparse, dense] {
            let tampered = reparse(&document).unwrap();
            assert_eq!(tampered.rate(0, 0), 1000.0);
            assert!(tampered.edges().is_empty(), "a self-rate is never an edge");
            let violations = tampered.validate();
            assert!(violations
                .iter()
                .any(|v| matches!(v, SchemeViolation::InvalidRate { from: 0, to: 0, .. })));
            assert!(violations
                .iter()
                .any(|v| matches!(v, SchemeViolation::BandwidthExceeded { node: 0, .. })));
        }
    }

    #[test]
    fn outdegree_counts_only_edges_that_exist() {
        let document = r#"{"format":2,"instance":{"bandwidths":[2.0,1.0,1.0],"n":2,"m":0},
            "edges":[[0,1,1.0],[0,2,1.0],[1,1,0.5]]}"#;
        let scheme: BroadcastScheme = serde_json::from_str(document).unwrap();
        assert_eq!(scheme.rate(1, 1), 0.5);
        assert_eq!(scheme.outdegree(1), 0);
        assert_eq!(scheme.out_edges(1).count(), 0);
        assert_eq!(
            scheme.outdegrees().iter().sum::<usize>(),
            scheme.edges().len()
        );
    }

    #[test]
    fn deserialize_rejects_truncated_rate_matrix() {
        let mut truncated = dense_document(&figure1_optimal_scheme());
        array_field(&mut truncated, "rates").pop();
        let err = reparse(&truncated).unwrap_err();
        assert!(err.to_string().contains("expected 6×6"), "{err}");
    }

    #[test]
    fn hand_written_dense_document_reads_back_equal() {
        // The Figure 1 scheme as a pre-format-2 document: no `format`, 6×6 row-major rates.
        let instance = serde_json::to_string(&figure1()).unwrap();
        let text = format!(
            r#"{{"instance": {instance}, "rates": [
                0, 0.2, 0,   3.4, 1.2, 1.2,
                0, 0,   0.8, 1,   1.6, 1.6,
                0, 1.8, 0,   0,   1.6, 1.6,
                0, 2.4, 1.6, 0,   0,   0,
                0, 0,   1,   0,   0,   0,
                0, 0,   1,   0,   0,   0
            ]}}"#
        );
        let back: BroadcastScheme = serde_json::from_str(&text).unwrap();
        assert_eq!(back, figure1_optimal_scheme());
        // Written again, it comes out as format 2.
        let rewritten = serde_json::to_string(&back).unwrap();
        assert!(rewritten.starts_with(r#"{"format":2,"#), "{rewritten}");
    }

    #[test]
    fn documents_list_every_stored_rate_in_row_major_order() {
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(2, 1, 1.5);
        s.set_rate(0, 4, 2.0);
        s.set_rate(0, 1, 1e-12); // dust is stored, and written
        s.set_rate(0, 3, 1.0);
        s.set_rate(0, 3, 0.0); // an exact zero is dropped
        let mut document = serde::Serialize::to_value(&s);
        let edges: Vec<(NodeId, NodeId, f64)> = serde::Deserialize::from_value(
            &serde::Value::Array(array_field(&mut document, "edges").clone()),
        )
        .unwrap();
        assert_eq!(edges, vec![(0, 1, 1e-12), (0, 4, 2.0), (2, 1, 1.5)]);
        assert_eq!(reparse(&document).unwrap(), s);
    }

    #[test]
    fn format_two_documents_accept_any_edge_order() {
        let s = figure1_optimal_scheme();
        let mut document = serde::Serialize::to_value(&s);
        array_field(&mut document, "edges").reverse();
        assert_eq!(reparse(&document).unwrap(), s);
    }

    #[test]
    fn out_edges_iterate_one_row_above_the_dust_threshold() {
        let mut s = figure1_optimal_scheme();
        s.set_rate(1, 0, 1e-12);
        let out: Vec<(NodeId, f64)> = s.out_edges(1).collect();
        assert_eq!(out, vec![(2, 0.8), (3, 1.0), (4, 1.6), (5, 1.6)]);
        for node in 0..s.instance().num_nodes() {
            let expected: Vec<(NodeId, f64)> = s
                .edges()
                .into_iter()
                .filter(|&(from, _, _)| from == node)
                .map(|(_, to, rate)| (to, rate))
                .collect();
            assert_eq!(s.out_edges(node).collect::<Vec<_>>(), expected);
        }
    }

    #[test]
    fn serde_roundtrip() {
        let s = figure1_optimal_scheme();
        let json = serde_json::to_string(&s).unwrap();
        let back: BroadcastScheme = serde_json::from_str(&json).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn cyclic_scheme_detected() {
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(1, 2, 1.0);
        s.set_rate(2, 1, 1.0);
        assert!(!s.is_acyclic());
        assert!(s.topological_order().is_none());
    }
}
