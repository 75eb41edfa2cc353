//! Simulation configuration.

/// Knobs for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Linear volume multiplier. `1.0` produces the default corpus: about
    /// 314 k connection records and 146 k unique certificates (`repro
    /// --metrics` reports the exact `netsim.ssl_records` and
    /// `netsim.x509_records`; see DESIGN.md §1 on stratified scaling).
    /// Integration tests use `0.01`–`0.05`.
    pub scale: f64,
    /// Whether to include the non-mTLS strata (Table 2's right half,
    /// Table 14, Figure 1's denominator). On by default; some examples
    /// disable it to focus on mutual TLS.
    pub include_non_mtls: bool,
    /// Whether to plant TLS-interception traffic (§3.2.1).
    pub include_interception: bool,
    /// Whether to plant ParsEval-class malformed certificates into the
    /// traffic (truncated DER, corrupted lengths, sign characters in time
    /// strings, …). Off by default so the calibrated corpus stays
    /// bit-identical; the conformance tests turn it on to exercise the
    /// lenient ingest path end-to-end.
    pub include_malformed: bool,
    /// Whether to plant an equivocating CT log: the campus border is
    /// served a forked view with fabricated entries covering interception
    /// proxy certificates, while the external monitor sees the honest
    /// view. Off by default (clean corpora must detect zero split views);
    /// the CT gossip tests turn it on.
    pub include_ct_equivocation: bool,
    /// Whether to plant an SCT-stripping middlebox: a twin of a logged
    /// public certificate (same subject, SANs and issuer, different
    /// fingerprint) is served without ever being CT-logged. Off by
    /// default.
    pub include_sct_strip: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0x6d746c73,
            scale: 1.0,
            include_non_mtls: true,
            include_interception: true,
            include_malformed: false,
            include_ct_equivocation: false,
            include_sct_strip: false,
        }
    }
}

impl SimConfig {
    /// Validate the configuration. `scale` must be a finite, strictly
    /// positive number: NaN and negative values would otherwise slip
    /// through the scaling arithmetic silently (`round() as usize`
    /// saturates NaN and negatives to 0, `+inf` to `usize::MAX`), turning
    /// a typo'd 10–100× sweep into an empty — or impossibly huge —
    /// scenario instead of an error.
    pub fn validate(&self) -> Result<(), String> {
        if !self.scale.is_finite() {
            return Err(format!("scale must be finite, got {}", self.scale));
        }
        if self.scale <= 0.0 {
            return Err(format!("scale must be > 0, got {}", self.scale));
        }
        Ok(())
    }

    /// Scale an absolute default count.
    pub fn scaled(&self, base: usize) -> usize {
        ((base as f64) * self.scale).round().max(1.0) as usize
    }

    /// Scale a count that may legitimately go to zero at tiny scales.
    pub fn scaled_may_vanish(&self, base: usize) -> usize {
        ((base as f64) * self.scale).round() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling() {
        let cfg = SimConfig {
            scale: 0.5,
            ..SimConfig::default()
        };
        assert_eq!(cfg.scaled(100), 50);
        assert_eq!(cfg.scaled(1), 1); // floor of 1
        assert_eq!(cfg.scaled_may_vanish(1), 1);
        let tiny = SimConfig {
            scale: 0.001,
            ..SimConfig::default()
        };
        assert_eq!(tiny.scaled(100), 1);
        assert_eq!(tiny.scaled_may_vanish(100), 0);
    }

    #[test]
    fn validate_rejects_degenerate_scales() {
        let mut cfg = SimConfig::default();
        assert!(cfg.validate().is_ok());
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 0.0] {
            cfg.scale = bad;
            let err = cfg.validate().expect_err("degenerate scale accepted");
            assert!(err.contains("scale"), "unhelpful error: {err}");
        }
        // The exact pathologies validate() exists to catch: NaN and
        // negative scales silently round to empty scenarios.
        cfg.scale = f64::NAN;
        assert_eq!(cfg.scaled_may_vanish(1000), 0);
        cfg.scale = -1.0;
        assert_eq!(cfg.scaled_may_vanish(1000), 0);
    }
}
