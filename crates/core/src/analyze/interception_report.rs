//! Experiment `pre1` — §3.2.1: the TLS-interception preprocessing result
//! (the paper: 186 issuers, 871,993 certificates = 8.4 % excluded).

use crate::corpus::Corpus;
use crate::report::{count, pct, Table};

/// The preprocessing summary.
#[derive(Debug, Clone)]
pub struct Report {
    pub issuers: Vec<String>,
    pub excluded_certs: usize,
    pub total_certs: usize,
}

/// Run the analyzer.
pub fn run(corpus: &Corpus) -> Report {
    Report {
        issuers: corpus.interception_issuers.clone(),
        excluded_certs: corpus.excluded_certs,
        total_certs: corpus.certs.len(),
    }
}

impl Report {
    /// Excluded share of all unique certificates.
    pub fn excluded_share(&self) -> f64 {
        self.excluded_certs as f64 / self.total_certs.max(1) as f64
    }

    /// Render the summary.
    pub fn render(&self) -> String {
        let mut t = Table::new(
            "Preprocessing: TLS-interception filtering (section 3.2.1)",
            &["metric", "value"],
        );
        t.row(vec![
            "interception issuers".into(),
            count(self.issuers.len()),
        ]);
        t.row(vec![
            "certificates excluded".into(),
            count(self.excluded_certs),
        ]);
        t.row(vec![
            "% of unique certificates".into(),
            format!(
                "{}% (paper 8.4%)",
                pct(self.excluded_certs, self.total_certs)
            ),
        ]);
        let mut s = t.render();
        for issuer in self.issuers.iter().take(5) {
            s.push_str(&format!("  e.g. {issuer}\n"));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::fp;
    use mtls_intern::FxHashSet;
    use mtls_zeek::{Fp, X509Record};

    #[test]
    fn reports_exclusion_share() {
        let rec = |name: &str| X509Record {
            ts: 0.0,
            fingerprint: fp(name),
            version: 3,
            serial: "01".into(),
            subject: String::new(),
            issuer: String::new(),
            issuer_org: None,
            subject_cn: None,
            not_valid_before: 0,
            not_valid_after: 1,
            key_alg: "rsa".into(),
            key_length: 2048,
            sig_alg: "".into(),
            san_dns: vec![],
            san_email: vec![],
            san_uri: vec![],
            san_ip: vec![],
            basic_constraints_ca: false,
        };
        let certs = vec![rec("a"), rec("b"), rec("c"), rec("d")];
        let excluded: FxHashSet<Fp> = [fp("a")].into_iter().collect();
        let corpus = crate::corpus::Corpus::build(
            vec![],
            certs,
            crate::testutil::meta(),
            &excluded,
            vec!["ProxyCo CA".into()],
        );
        let r = run(&corpus);
        assert_eq!(r.excluded_certs, 1);
        assert_eq!(r.total_certs, 4);
        assert!((r.excluded_share() - 0.25).abs() < 1e-12);
        assert_eq!(r.issuers, vec!["ProxyCo CA".to_string()]);
        assert!(r.render().contains("8.4%"));
    }
}
