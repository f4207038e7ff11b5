//! The two expression-level same-processor subscript tests the passes used
//! to call (now `#[cfg(test)]` inside `syncopt-core`, out of this crate's
//! reach), rebuilt on `to_affine`.

use crate::context::steps;
use syncopt_core::affine::{to_affine, Affine};
use syncopt_ir::expr::Expr;

/// `a1 - a2`, or `None` when a coefficient does not fit (the negation is
/// taken first, as the original did: `-i64::MIN` already fails).
fn difference(a1: &Affine, a2: &Affine) -> Option<Affine> {
    let mut diff = Affine {
        konst: a1.konst.checked_add(a2.konst.checked_neg()?)?,
        myproc: a1.myproc.checked_add(a2.myproc.checked_neg()?)?,
        coeffs: a1.coeffs.clone(),
    };
    for &(v, c) in &a2.coeffs {
        let neg = c.checked_neg()?;
        match diff.coeffs.binary_search_by_key(&v, |&(w, _)| w) {
            Ok(at) => diff.coeffs[at].1 = diff.coeffs[at].1.checked_add(neg)?,
            Err(at) => diff.coeffs.insert(at, (v, neg)),
        }
    }
    diff.coeffs.retain(|&(_, c)| c != 0);
    Some(diff)
}

/// Could subscript `e1` equal `e2` on the same processor with the same
/// local state? `true` unless provably different.
pub(crate) fn may_equal_same_proc(e1: Option<&Expr>, e2: Option<&Expr>) -> bool {
    steps::count(|s| s.subscript_tests += 1);
    let (Some(e1), Some(e2)) = (e1, e2) else {
        return true;
    };
    let (Some(a1), Some(a2)) = (to_affine(e1), to_affine(e2)) else {
        return true;
    };
    let Some(diff) = difference(&a1, &a2) else {
        return true;
    };
    if diff.myproc == 0 && diff.coeffs.is_empty() {
        return diff.konst == 0;
    }
    true
}

/// Are the two subscripts provably equal on the same processor with the
/// same local state?
pub(crate) fn provably_equal_same_proc(e1: Option<&Expr>, e2: Option<&Expr>) -> bool {
    steps::count(|s| s.subscript_tests += 1);
    match (e1, e2) {
        (None, None) => true,
        (Some(e1), Some(e2)) => {
            let (Some(a1), Some(a2)) = (to_affine(e1), to_affine(e2)) else {
                return false;
            };
            a1 == a2
        }
        _ => false,
    }
}
