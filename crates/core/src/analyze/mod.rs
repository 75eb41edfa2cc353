//! One analyzer per table/figure (DESIGN.md §3 maps experiment ids to
//! modules). Every analyzer is a pure function of the [`Corpus`] returning
//! a typed `Report` with a text rendering.
//!
//! [`Corpus`]: crate::corpus::Corpus

pub mod audit;
pub mod cert_census;
pub mod cert_sharing;
pub mod cn_san_usage;
pub mod ct_report;
pub mod dummy_issuers;
pub mod expired;
pub mod generalization;
pub mod inbound;
pub mod incorrect_dates;
pub mod info_types;
pub mod interception_report;
pub mod outbound_flows;
pub mod ports;
pub mod prevalence;
pub mod serial_collisions;
pub mod subnet_spread;
pub mod tracking;
pub mod unidentified;
pub mod validity;

use mtls_classify::{classify, ClassifyContext, InfoType};
use mtls_intern::FxHashMap;
use std::hash::Hash;

/// One analyzer run's memo of a per-string result. CN and SAN strings
/// repeat across a corpus's certificates, so each distinct (text, `key`)
/// is computed once; `key` must hold everything besides the text that the
/// result reads.
pub(crate) struct TextMemo<'c, K, V>(FxHashMap<(&'c str, K), V>);

impl<'c, K: Eq + Hash, V: Copy> TextMemo<'c, K, V> {
    pub(crate) fn new() -> Self {
        TextMemo(FxHashMap::default())
    }

    /// The result for (`text`, `key`), computed by `compute` on first use.
    pub(crate) fn get(&mut self, text: &'c str, key: K, compute: impl FnOnce() -> V) -> V {
        *self.0.entry((text, key)).or_insert_with(compute)
    }
}

impl<'c> TextMemo<'c, bool, InfoType> {
    /// [`classify`] keyed on exactly what it reads: the text and
    /// `issuer_is_campus` (it ignores `issuer_org`).
    pub(crate) fn classify(&mut self, text: &'c str, ctx: ClassifyContext<'_>) -> InfoType {
        self.get(text, ctx.issuer_is_campus, || classify(text, ctx))
    }
}

/// Quantile over a sorted slice (nearest-rank).
pub fn quantile(sorted: &[usize], q: f64) -> usize {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::quantile;

    #[test]
    fn quantiles_nearest_rank() {
        let v = vec![1, 1, 1, 2, 3, 5, 8, 13, 21, 100];
        assert_eq!(quantile(&v, 0.5), 3);
        assert_eq!(quantile(&v, 0.75), 13);
        assert_eq!(quantile(&v, 0.99), 100);
        assert_eq!(quantile(&v, 1.0), 100);
        assert_eq!(quantile(&[], 0.5), 0);
        assert_eq!(quantile(&[7], 0.5), 7);
    }
}
