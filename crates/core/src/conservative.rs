//! Conservative solutions and per-order throughput (Lemmas 4.2 and 4.3).
//!
//! A solution is *conservative* with respect to an order when open bandwidth is never used to
//! feed an open node while some earlier guarded node still has unused upload capacity.
//! Lemma 4.3 shows conservative solutions dominate, which is why the whole acyclic analysis
//! can be carried out on the `(O, G, W)` bookkeeping of [`crate::word`].
//!
//! This module provides the glue between explicit node orders and coding words, plus a
//! checker for the conservativeness property used by the tests to reproduce the Figure 2 /
//! Figure 4 discussion of the paper.

use crate::error::CoreError;
use crate::scheme::{BroadcastScheme, RATE_EPS};
use crate::word::{optimal_throughput_for_word, CodingWord, Symbol};
use bmp_flow::eps;
use bmp_platform::{Instance, NodeClass, NodeId};

/// Validates that `order` is a permutation of all nodes starting with the source.
///
/// # Errors
///
/// Returns [`CoreError::InvalidOrder`] otherwise.
pub fn validate_order(instance: &Instance, order: &[NodeId]) -> Result<(), CoreError> {
    if order.len() != instance.num_nodes() {
        return Err(CoreError::InvalidOrder(format!(
            "order has {} entries, instance has {} nodes",
            order.len(),
            instance.num_nodes()
        )));
    }
    if order.first() != Some(&0) {
        return Err(CoreError::InvalidOrder(
            "the source must come first".to_string(),
        ));
    }
    let mut seen = vec![false; instance.num_nodes()];
    for &node in order {
        if node >= instance.num_nodes() {
            return Err(CoreError::InvalidOrder(format!("node {node} out of range")));
        }
        if seen[node] {
            return Err(CoreError::InvalidOrder(format!("node {node} repeated")));
        }
        seen[node] = true;
    }
    Ok(())
}

/// Whether `order` is an *increasing* order: inside each class, nodes appear by
/// non-increasing bandwidth, i.e. by increasing index (Lemma 4.2).
///
/// # Errors
///
/// Returns [`CoreError::InvalidOrder`] when `order` is not a valid order at all.
pub fn is_increasing_order(instance: &Instance, order: &[NodeId]) -> Result<bool, CoreError> {
    validate_order(instance, order)?;
    let mut last_open = 0usize;
    let mut last_guarded = instance.n();
    for &node in &order[1..] {
        match instance.class(node) {
            NodeClass::Open => {
                if node < last_open {
                    return Ok(false);
                }
                last_open = node;
            }
            NodeClass::Guarded => {
                if node < last_guarded {
                    return Ok(false);
                }
                last_guarded = node;
            }
            NodeClass::Source => unreachable!("source already consumed"),
        }
    }
    Ok(true)
}

/// Converts an increasing order into its coding word.
///
/// # Errors
///
/// Returns [`CoreError::InvalidOrder`] when the order is malformed or not increasing.
pub fn order_to_word(instance: &Instance, order: &[NodeId]) -> Result<CodingWord, CoreError> {
    if !is_increasing_order(instance, order)? {
        return Err(CoreError::InvalidOrder(
            "order is not increasing (nodes of a class must appear by non-increasing bandwidth)"
                .to_string(),
        ));
    }
    let mut word = CodingWord::empty();
    for &node in &order[1..] {
        match instance.class(node) {
            NodeClass::Open => word.push(Symbol::Open),
            NodeClass::Guarded => word.push(Symbol::Guarded),
            NodeClass::Source => unreachable!("source already consumed"),
        }
    }
    Ok(word)
}

/// Optimal acyclic throughput `T*_ac(σ)` for an increasing order `σ`, computed by the
/// shared dichotomic driver ([`crate::search::DichotomicSearch`], via
/// [`optimal_throughput_for_word`]) on the word-validity conditions.
///
/// # Errors
///
/// Returns [`CoreError::InvalidOrder`] when the order is malformed or not increasing.
pub fn optimal_throughput_for_order(
    instance: &Instance,
    order: &[NodeId],
    tolerance: f64,
) -> Result<f64, CoreError> {
    let word = order_to_word(instance, order)?;
    Ok(optimal_throughput_for_word(instance, &word, tolerance))
}

/// Whether `scheme` is compatible with `order`: every positive rate goes from an earlier node
/// of the order to a later one (this is the acyclicity witness used throughout Section IV).
///
/// # Errors
///
/// Returns [`CoreError::InvalidOrder`] when the order is malformed.
pub fn is_compatible_with_order(
    scheme: &BroadcastScheme,
    order: &[NodeId],
) -> Result<bool, CoreError> {
    let instance = scheme.instance();
    validate_order(instance, order)?;
    let mut position = vec![0usize; instance.num_nodes()];
    for (pos, &node) in order.iter().enumerate() {
        position[node] = pos;
    }
    for (from, to, _) in scheme.edges() {
        if position[from] >= position[to] {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Whether `scheme` is *conservative* with respect to `order` (Section IV-A).
///
/// A violation is a triplet of positions `i < k`, `j < k` such that `σ(i)` is guarded,
/// `σ(j)` and `σ(k)` are open, the open node `σ(j)` sends data to `σ(k)` while the guarded
/// node `σ(i)` still has upload capacity left after serving the nodes up to position `k`.
///
/// # Errors
///
/// Returns [`CoreError::InvalidOrder`] when the order is malformed.
pub fn is_conservative(scheme: &BroadcastScheme, order: &[NodeId]) -> Result<bool, CoreError> {
    let instance = scheme.instance();
    validate_order(instance, order)?;
    let len = order.len();
    let mut position = vec![0; len];
    for (k, &node) in order.iter().enumerate() {
        position[node] = k;
    }
    for k in 1..len {
        let node_k = order[k];
        if instance.class(node_k) != NodeClass::Open {
            continue;
        }
        for j in 0..k {
            let node_j = order[j];
            if !instance.is_open_like(node_j) || scheme.rate(node_j, node_k) <= RATE_EPS {
                continue;
            }
            // σ(j) (open-like) feeds the open node σ(k): no earlier guarded node may have
            // spare capacity towards the prefix ending at k.
            for (i, &node_i) in order[..k].iter().enumerate() {
                if instance.class(node_i) != NodeClass::Guarded {
                    continue;
                }
                let used_up_to_k: f64 = scheme
                    .out_edges(node_i)
                    .filter(|&(to, _)| (i + 1..=k).contains(&position[to]))
                    .map(|(_, rate)| rate)
                    .sum();
                if eps::definitely_lt(used_up_to_k, instance.bandwidth(node_i)) {
                    return Ok(false);
                }
            }
        }
    }
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bmp_platform::paper::figure1;

    fn figure2_scheme() -> (BroadcastScheme, Vec<NodeId>) {
        // The conservative acyclic scheme of Figure 2, order σ = 0 3 1 2 4 5.
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(0, 3, 4.0);
        s.set_rate(0, 2, 2.0);
        s.set_rate(3, 1, 4.0);
        s.set_rate(1, 2, 2.0);
        s.set_rate(1, 4, 3.0);
        s.set_rate(2, 4, 1.0);
        s.set_rate(2, 5, 4.0);
        (s, vec![0, 3, 1, 2, 4, 5])
    }

    fn figure4_scheme() -> (BroadcastScheme, Vec<NodeId>) {
        // The non-conservative scheme of Figure 4: C1 could be fed entirely by the guarded
        // node C3 but takes 2 units from the source instead.
        let mut s = BroadcastScheme::new(figure1());
        s.set_rate(0, 3, 4.0);
        s.set_rate(0, 1, 2.0);
        s.set_rate(3, 1, 2.0);
        s.set_rate(3, 2, 2.0);
        s.set_rate(1, 2, 2.0);
        s.set_rate(1, 4, 3.0);
        s.set_rate(2, 4, 1.0);
        s.set_rate(2, 5, 4.0);
        (s, vec![0, 3, 1, 2, 4, 5])
    }

    #[test]
    fn order_validation() {
        let inst = figure1();
        assert!(validate_order(&inst, &[0, 1, 2, 3, 4, 5]).is_ok());
        assert!(validate_order(&inst, &[1, 0, 2, 3, 4, 5]).is_err());
        assert!(validate_order(&inst, &[0, 1, 2, 3, 4]).is_err());
        assert!(validate_order(&inst, &[0, 1, 1, 3, 4, 5]).is_err());
        assert!(validate_order(&inst, &[0, 1, 2, 3, 4, 9]).is_err());
    }

    #[test]
    fn increasing_orders() {
        let inst = figure1();
        assert!(is_increasing_order(&inst, &[0, 3, 1, 2, 4, 5]).unwrap());
        assert!(is_increasing_order(&inst, &[0, 1, 2, 3, 4, 5]).unwrap());
        // σ = 0 4 1 2 3 5 uses guarded node 4 before guarded node 3: not increasing.
        assert!(!is_increasing_order(&inst, &[0, 4, 1, 2, 3, 5]).unwrap());
        // Swapping the two open nodes is also not increasing.
        assert!(!is_increasing_order(&inst, &[0, 2, 1, 3, 4, 5]).unwrap());
    }

    #[test]
    fn order_word_roundtrip() {
        let inst = figure1();
        let order = vec![0, 3, 1, 2, 4, 5];
        let word = order_to_word(&inst, &order).unwrap();
        assert_eq!(word.to_string(), "googg");
        assert_eq!(word.to_order(&inst).unwrap(), order);
        assert!(order_to_word(&inst, &[0, 4, 1, 2, 3, 5]).is_err());
    }

    #[test]
    fn per_order_optimum_matches_manual_values() {
        let inst = figure1();
        // Both the Figure 2 order and the Figure 5 order reach the optimal acyclic value 4.
        let t = optimal_throughput_for_order(&inst, &[0, 3, 1, 2, 4, 5], 1e-12).unwrap();
        assert!((t - 4.0).abs() < 1e-6);
        let t = optimal_throughput_for_order(&inst, &[0, 3, 1, 4, 2, 5], 1e-12).unwrap();
        assert!((t - 4.0).abs() < 1e-6);
        // Putting both open nodes first wastes open bandwidth: only 3.2 is achievable.
        let t = optimal_throughput_for_order(&inst, &[0, 1, 2, 3, 4, 5], 1e-12).unwrap();
        assert!((t - 3.2).abs() < 1e-6);
    }

    #[test]
    fn figure2_scheme_is_conservative_and_compatible() {
        let (scheme, order) = figure2_scheme();
        assert!(is_compatible_with_order(&scheme, &order).unwrap());
        assert!(is_conservative(&scheme, &order).unwrap());
    }

    #[test]
    fn figure4_scheme_is_not_conservative() {
        let (scheme, order) = figure4_scheme();
        assert!(scheme.is_feasible());
        assert!(is_compatible_with_order(&scheme, &order).unwrap());
        assert!(!is_conservative(&scheme, &order).unwrap());
    }

    #[test]
    fn compatibility_detects_backward_edges() {
        let (mut scheme, order) = figure2_scheme();
        scheme.set_rate(4, 3, 0.0); // still zero: no change
        assert!(is_compatible_with_order(&scheme, &order).unwrap());
        scheme.set_rate(2, 3, 0.5); // node 2 is after node 3 is before... σ places 3 before 2
        assert!(!is_compatible_with_order(&scheme, &order).unwrap());
    }
}
