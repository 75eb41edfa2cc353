//! Per-request verdicts: the offline pipeline's answers, one input at a
//! time.
//!
//! `mtlscope serve` answers two request shapes — a raw DER certificate
//! blob, or a Zeek `x509.log` shard — with a deterministic text verdict:
//! parse result, issuer classification, the policy audit, the
//! interception-candidate call, and the CN/SAN privacy classification.
//! Every piece is computed by the *same* functions the offline pipeline
//! runs ([`crate::corpus::issuer_facts`],
//! [`crate::analyze::audit::evaluate_fields`],
//! [`crate::pipeline::interception::is_candidate`],
//! [`mtls_classify::classify`]), so a verdict served over mutual TLS is
//! byte-identical to what the batch analysis would say about the same
//! record — pinned over a real socket by the `served_*` tests in
//! `crates/serve/tests/e2e.rs`, and the bytes themselves by
//! `tests/verdict_pin.rs`.
//!
//! A shard's rows are parsed one at a time into one reused record, and each
//! row's issuer facts are computed once and feed the audit and the
//! classifier alike. Every row renders straight into the one output
//! buffer with `push_str`.

use crate::analyze::audit::evaluate_fields;
use crate::corpus::{issuer_facts, MetaKnowledge};
use crate::pipeline::interception::is_candidate;
use mtls_classify::classify;
use mtls_crypto::Fp;
use mtls_pki::{CtLog, ValidationPolicy};
use mtls_zeek::{TsvError, X509Record, X509Rows};
use std::fmt::Write;

/// Everything a verdict needs besides the input itself. The server builds
/// one of these at startup; tests build one for the offline twin.
#[derive(Clone)]
pub struct VerdictContext {
    /// Policy the audit section applies (the server default is
    /// [`ValidationPolicy::enterprise`], matching the offline ext1 run).
    pub policy: ValidationPolicy,
    /// World knowledge: public/campus issuer lists, network layout.
    pub meta: MetaKnowledge,
    /// CT view for the interception-candidate call.
    pub ct: CtLog,
    /// Evaluation time (unix seconds) for the validity checks.
    pub at: f64,
}

/// A one-row verdict's starting capacity: its fixed lines plus typical
/// names and SAN lists.
const RECORD_CAPACITY: usize = 512;

/// Render the verdict for one already-parsed `x509.log` record.
pub fn record_verdict(rec: &X509Record, ctx: &VerdictContext) -> String {
    let mut out = String::with_capacity(RECORD_CAPACITY);
    render_record(&mut out, rec, ctx);
    out
}

/// Append `rec`'s verdict block to `out`.
fn render_record(out: &mut String, rec: &X509Record, ctx: &VerdictContext) {
    let issuer = issuer_facts(&ctx.meta, rec);
    for (head, value) in [
        ("verdict: cert\nfingerprint: ", rec.fingerprint.as_str()),
        ("\nparse: ok\nsubject: ", &rec.subject),
        ("\nissuer: ", &rec.issuer),
        ("\nissuer_class: ", issuer.category.label()),
    ] {
        out.push_str(head);
        out.push_str(value);
    }
    out.push_str("\naudit: ");
    let violations = evaluate_fields(&ctx.policy, rec, &issuer, ctx.at, false);
    if violations.is_empty() {
        out.push_str("(clean)");
    }
    for (i, v) in violations.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(v.label());
    }

    // The interception filter only ever considers private issuers with a
    // named org; mirror its gating here so the per-cert call matches what
    // the corpus-level filter would feed the issuer aggregation.
    out.push_str("\ninterception: ");
    out.push_str(if issuer.public {
        "not-applicable (public issuer)"
    } else if rec
        .issuer_org
        .as_deref()
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .is_none()
    {
        "not-applicable (missing issuer)"
    } else if is_candidate(rec, ctx.ct.index()) {
        "candidate"
    } else {
        "clear"
    });
    out.push('\n');

    let cctx = issuer.classify_context(rec.issuer_org.as_deref());
    let fields = [
        ("cn", rec.subject_cn.as_slice()),
        ("san_dns", &rec.san_dns[..]),
        ("san_email", &rec.san_email[..]),
        ("san_uri", &rec.san_uri[..]),
        ("san_ip", &rec.san_ip[..]),
    ];
    if rec.subject_cn.is_none() {
        out.push_str("privacy.cn: (absent)\n");
    }
    for (field, values) in fields {
        for v in values {
            for part in [
                "privacy.",
                field,
                ": ",
                v,
                " => ",
                classify(v, cctx).label(),
                "\n",
            ] {
                out.push_str(part);
            }
        }
    }
}

/// Render the verdict for a raw DER certificate blob. The DER is mapped
/// to its `x509.log` row exactly the way the traffic emitter logs one
/// ([`mtls_netsim::to_x509_record`] over the SHA-256 fingerprint), then
/// judged by [`record_verdict`]. Unparseable blobs get a parse-error
/// verdict instead of an error channel: a malformed certificate is an
/// analysis *result* here, not a failure.
pub fn cert_verdict_der(der: &[u8], ctx: &VerdictContext) -> String {
    let fp = Fp::of(der);
    match mtls_x509::Certificate::from_der(der) {
        Ok(cert) => record_verdict(&mtls_netsim::to_x509_record(&cert, fp, ctx.at), ctx),
        Err(e) => format!("verdict: cert\nfingerprint: {fp}\nparse: error: {e}\n"),
    }
}

/// Render the verdict for a Zeek `x509.log` shard: a header with the row
/// count, then one [`record_verdict`] block per row in shard order. Each
/// row is parsed into one record reused across the shard and rendered
/// before the next is parsed; the first bad row (or a bad header, checked
/// before any row) turns the whole answer into a parse-error verdict, as
/// [`mtls_zeek::read_x509_log`] would.
pub fn shard_verdict(tsv: &[u8], ctx: &VerdictContext) -> String {
    let error = |e: TsvError| format!("verdict: shard\nparse: error: {e}\n");
    let mut rows = match X509Rows::new(tsv) {
        Ok(rows) => rows,
        Err(e) => return error(e),
    };
    // A shard's verdict runs about as long as the shard itself.
    let mut out = String::with_capacity(tsv.len() + tsv.len() / 4);
    out.push_str("verdict: shard\nrecords: ");
    write!(out, "{}", rows.len()).expect("writing to a String cannot fail");
    out.push('\n');
    let mut rec = X509Record::default();
    while let Some(parsed) = rows.next_into(&mut rec) {
        if let Err(e) = parsed {
            return error(e);
        }
        out.push('\n');
        render_record(&mut out, &rec, ctx);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::meta;
    use mtls_asn1::Asn1Time;
    use mtls_crypto::Keypair;
    use mtls_pki::CertificateAuthority;
    use mtls_x509::{CertificateBuilder, DistinguishedName, GeneralName};

    fn ctx() -> VerdictContext {
        VerdictContext {
            policy: ValidationPolicy::enterprise(),
            meta: meta(),
            ct: CtLog::new(),
            at: Asn1Time::from_ymd(2022, 6, 1).unix() as f64,
        }
    }

    fn mint(cn: &str, issuer_org: &str) -> Vec<u8> {
        let ca = CertificateAuthority::new_root(
            b"verdict-ca",
            DistinguishedName::builder()
                .organization(issuer_org)
                .build(),
            Asn1Time::from_ymd(2022, 1, 1),
        );
        let key = Keypair::from_seed(cn.as_bytes());
        ca.issue(
            CertificateBuilder::new()
                .subject(DistinguishedName::builder().common_name(cn).build())
                .san(vec![GeneralName::Dns(cn.into())])
                .validity(
                    Asn1Time::from_ymd(2022, 1, 1),
                    Asn1Time::from_ymd(2023, 1, 1),
                )
                .subject_key(key.key_id()),
        )
        .to_der()
    }

    #[test]
    fn der_verdict_sections_present() {
        let v = cert_verdict_der(&mint("portal.example.edu", "Example Corp"), &ctx());
        assert!(v.starts_with("verdict: cert\n"), "{v}");
        assert!(v.contains("parse: ok"));
        assert!(v.contains("issuer_class: "));
        assert!(v.contains("audit: "));
        assert!(v.contains("interception: "));
        assert!(v.contains("privacy.cn: portal.example.edu => Domain"));
    }

    #[test]
    fn der_verdict_deterministic() {
        let der = mint("a.example.org", "Acme Inc");
        let c = ctx();
        assert_eq!(cert_verdict_der(&der, &c), cert_verdict_der(&der, &c));
    }

    #[test]
    fn garbage_der_is_a_parse_error_verdict() {
        let v = cert_verdict_der(b"not a certificate", &ctx());
        assert!(v.contains("parse: error: "), "{v}");
        assert!(!v.contains("audit:"), "no analysis on unparsed input");
    }

    #[test]
    fn shard_verdict_covers_every_row() {
        let c = ctx();
        let ders = [
            mint("one.example.org", "Acme Inc"),
            mint("two.example.org", "Acme Inc"),
        ];
        let records: Vec<X509Record> = ders
            .iter()
            .map(|d| {
                let cert = mtls_x509::Certificate::from_der(d).unwrap();
                mtls_netsim::to_x509_record(&cert, Fp::of(d), c.at)
            })
            .collect();
        let mut tsv = Vec::new();
        mtls_zeek::write_x509_log(&mut tsv, &records).unwrap();
        let v = shard_verdict(&tsv, &c);
        assert!(v.starts_with("verdict: shard\nrecords: 2\n"), "{v}");
        // Each row's verdict equals the standalone record verdict.
        for rec in &records {
            assert!(v.contains(&record_verdict(rec, &c)));
        }
    }

    #[test]
    fn malformed_shard_is_a_parse_error_verdict() {
        let v = shard_verdict(b"#separator nonsense\ngarbage", &ctx());
        assert!(v.contains("parse: error: "), "{v}");
    }

    /// A context whose CT log holds `logged` (a DER certificate).
    fn ctx_with_ct(logged: &[u8]) -> VerdictContext {
        let mut c = ctx();
        c.ct.submit(&mtls_x509::Certificate::from_der(logged).unwrap());
        c
    }

    /// The verdict for `der` and the pipeline's own call on its record.
    fn interception_line(der: &[u8], c: &VerdictContext) -> (String, bool) {
        let v = cert_verdict_der(der, c);
        let cert = mtls_x509::Certificate::from_der(der).unwrap();
        let rec = mtls_netsim::to_x509_record(&cert, Fp::of(der), c.at);
        let line = v
            .lines()
            .find_map(|l| l.strip_prefix("interception: "))
            .expect("interception line")
            .to_string();
        (line, is_candidate(&rec, c.ct.index()))
    }

    #[test]
    fn ct_logged_under_another_issuer_is_a_candidate() {
        // CT knows the name under a public CA; a private issuer presents it.
        let c = ctx_with_ct(&mint("popular.example.org", "DigiCert Inc"));
        let der = mint("popular.example.org", "ProxyGuard CA");
        let (line, candidate) = interception_line(&der, &c);
        assert_eq!(line, "candidate");
        assert!(candidate, "the verdict agrees with the offline filter");
    }

    #[test]
    fn ct_logged_under_the_same_issuer_is_clear() {
        let der = mint("intranet.example.org", "ProxyGuard CA");
        let c = ctx_with_ct(&der);
        let (line, candidate) = interception_line(&der, &c);
        assert_eq!(line, "clear");
        assert!(!candidate, "the verdict agrees with the offline filter");
        // A name CT never saw is clear too.
        let (line, candidate) =
            interception_line(&mint("unlogged.example.org", "ProxyGuard CA"), &c);
        assert_eq!(line, "clear");
        assert!(!candidate);
    }

    #[test]
    fn audit_flags_flow_through() {
        // An expired cert must show up in the audit line.
        let ca = CertificateAuthority::new_root(
            b"verdict-ca2",
            DistinguishedName::builder().organization("Old CA").build(),
            Asn1Time::from_ymd(2019, 1, 1),
        );
        let key = Keypair::from_seed(b"expired-leaf");
        let der = ca
            .issue(
                CertificateBuilder::new()
                    .subject(
                        DistinguishedName::builder()
                            .common_name("old.example")
                            .build(),
                    )
                    .validity(
                        Asn1Time::from_ymd(2019, 1, 1),
                        Asn1Time::from_ymd(2020, 1, 1),
                    )
                    .subject_key(key.key_id()),
            )
            .to_der();
        let v = cert_verdict_der(&der, &ctx());
        assert!(v.contains("audit: expired"), "{v}");
    }
}
