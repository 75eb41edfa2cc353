//! Domain-name recognition and TLD/SLD extraction.
//!
//! The paper uses Python `tldextract` backed by the Public Suffix List. We
//! embed the slice of the PSL that covers every suffix the simulation (and
//! the paper's tables) mention, plus the common two-level country suffixes,
//! and implement longest-suffix-match extraction over it.

use crate::gazetteer::contains_ci;

/// Single-label public suffixes.
const TLDS: &[&str] = &[
    "com", "org", "net", "edu", "gov", "mil", "int", "io", "me", "co", "cn", "top", "info", "biz",
    "us", "uk", "de", "fr", "jp", "au", "ca", "nl", "se", "no", "ch", "it", "es", "eu", "kr", "in",
    "br", "ru", "xyz", "dev", "app", "cloud", "online", "site", "tech", "ai",
    // "og" is not a real IANA TLD, but the reproduced paper's Table 5
    // contains the literal SLD "acr.og"; treated as a suffix for fidelity.
    "og",
];

/// Multi-label public suffixes (longest match wins). Each has exactly two
/// labels.
const MULTI_SUFFIXES: &[&str] = &[
    "co.uk", "ac.uk", "gov.uk", "org.uk", "com.au", "edu.au", "gov.au", "co.jp", "ac.jp", "com.cn",
    "edu.cn", "gov.cn", "com.br", "co.kr", "co.in",
];

/// The pieces `tldextract` returns.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DomainParts {
    /// The public suffix, e.g. `com` or `co.uk`.
    pub tld: String,
    /// The registrable label directly left of the suffix, e.g. `amazonaws`.
    pub sld: String,
    /// Any further labels, e.g. `ec2.us-east-1`.
    pub subdomain: String,
}

impl DomainParts {
    /// `sld.tld` — the registered domain the paper groups by.
    pub fn registered_domain(&self) -> String {
        format!("{}.{}", self.sld, self.tld)
    }
}

fn is_label(s: &[u8]) -> bool {
    !s.is_empty()
        && s.len() <= 63
        && s.iter()
            .all(|&b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        && s[0] != b'-'
        && s[s.len() - 1] != b'-'
}

/// Where a domain name's registrable label and public suffix start, found
/// by one walk over its labels without allocating. `name` is the input
/// trimmed of whitespace and trailing dots; `sld` and `suffix` are byte
/// offsets into it.
struct Split<'a> {
    name: &'a str,
    sld: usize,
    suffix: usize,
}

/// The suffix rules [`is_domain_name`] and [`extract_domain`] share.
fn split(s: &str) -> Option<Split<'_>> {
    let s = s.trim().trim_end_matches('.');
    // Start offsets of the last three labels, the last label last. A space
    // or `@` fails its label, so no separate scan rejects them.
    let mut starts = [0usize; 3];
    let mut labels = 0usize;
    let bytes = s.as_bytes();
    let mut at = 0usize;
    for end in (0..bytes.len())
        .filter(|&i| bytes[i] == b'.')
        .chain([bytes.len()])
    {
        let label = &bytes[at..end];
        // A leading `*` is a wildcard leaf; every other label must be valid.
        if !(is_label(label) || labels == 0 && label == b"*") {
            return None;
        }
        starts = [starts[1], starts[2], at];
        labels += 1;
        at = end + 1;
    }
    if labels < 2 {
        return None;
    }
    // The `k`-th label from the right (`k` = 1 is the last one).
    let label = |k: usize| {
        let end = if k == 1 { s.len() } else { starts[4 - k] - 1 };
        &s[starts[3 - k]..end]
    };

    // Longest-suffix match: two-label suffixes first (each holds one dot,
    // so it is compared against the last two labels as they stand). Both
    // lists are lowercase, so a case-insensitive lookup equals looking up
    // the lowered name.
    let suffix_len = if labels >= 3 && contains_ci(MULTI_SUFFIXES, &s[starts[1]..]) {
        2
    } else if contains_ci(TLDS, label(1)) {
        1
    } else {
        return None;
    };
    if labels <= suffix_len {
        return None; // bare public suffix
    }
    let sld = label(suffix_len + 1);
    if sld == "*" || sld.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    Some(Split {
        name: s,
        sld: starts[2 - suffix_len],
        suffix: starts[3 - suffix_len],
    })
}

/// Strict domain-name shape test: dot-separated valid labels ending in a
/// known public suffix, with at least one label left of the suffix, no
/// spaces, and not all-numeric (that would be an IP fragment). A leading
/// wildcard label (`*.example.com`) is accepted, as in certificates.
pub fn is_domain_name(s: &str) -> bool {
    split(s).is_some()
}

/// Extract TLD/SLD/subdomain, or `None` when `s` is not a domain name.
/// The parts are lowercased.
pub fn extract_domain(s: &str) -> Option<DomainParts> {
    let Split { name, sld, suffix } = split(s)?;
    Some(DomainParts {
        tld: name[suffix..].to_ascii_lowercase(),
        sld: name[sld..suffix - 1].to_ascii_lowercase(),
        subdomain: match sld {
            0 => String::new(),
            _ => name[..sld - 1].to_ascii_lowercase(),
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The label-vector extractor [`split`] replaced, kept as its twin,
    /// with its own label rule.
    fn reference_extract(s: &str) -> Option<DomainParts> {
        let is_label = |s: &str| {
            !s.is_empty()
                && s.len() <= 63
                && s.bytes()
                    .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
                && !s.starts_with('-')
                && !s.ends_with('-')
        };
        let s = s.trim().trim_end_matches('.');
        if s.is_empty() || s.contains(' ') || s.contains('@') || !s.contains('.') {
            return None;
        }
        let lower = s.to_ascii_lowercase();
        let labels: Vec<&str> = lower.split('.').collect();
        if labels.len() < 2 {
            return None;
        }
        for (i, label) in labels.iter().enumerate() {
            if i == 0 && *label == "*" {
                continue;
            }
            if !is_label(label) {
                return None;
            }
        }
        let last = labels[labels.len() - 1];
        let suffix_len = if labels.len() >= 3 {
            let second_last = labels[labels.len() - 2];
            let is_multi = MULTI_SUFFIXES.iter().any(|suf| {
                suf.split_once('.')
                    .is_some_and(|(a, b)| a == second_last && b == last)
            });
            if is_multi {
                2
            } else if TLDS.contains(&last) {
                1
            } else {
                return None;
            }
        } else if TLDS.contains(&last) {
            1
        } else {
            return None;
        };
        if labels.len() <= suffix_len {
            return None;
        }
        let sld = labels[labels.len() - suffix_len - 1];
        if sld == "*" || sld.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        Some(DomainParts {
            tld: labels[labels.len() - suffix_len..].join("."),
            sld: sld.to_string(),
            subdomain: labels[..labels.len() - suffix_len - 1].join("."),
        })
    }

    /// A domain-shaped string: 0–4 labels over letters of both cases,
    /// digits, `*`, `_`, `-` and some non-ASCII, then a suffix drawn from
    /// the lists (or not), with case flips, trailing dots and padding.
    fn domainish(labels: &[String], suffix: usize, flags: u32) -> String {
        let suffixes: Vec<&str> = TLDS
            .iter()
            .chain(MULTI_SUFFIXES)
            .copied()
            .chain(["notatld", "123", "", "*", "co.zz", "ac.uk."])
            .collect();
        let mut s = labels.join(".");
        if flags & 1 != 0 {
            s.insert_str(0, "*.");
        }
        if !s.is_empty() || flags & 2 != 0 {
            s.push('.');
        }
        s.push_str(suffixes[suffix % suffixes.len()]);
        if flags & 4 != 0 {
            s = s.to_ascii_uppercase();
        } else if flags & 8 != 0 {
            s = s
                .chars()
                .enumerate()
                .map(|(i, c)| {
                    if i % 2 == 0 {
                        c.to_ascii_uppercase()
                    } else {
                        c
                    }
                })
                .collect();
        }
        for _ in 0..(flags >> 4) % 3 {
            s.push('.');
        }
        match (flags >> 6) % 5 {
            1 => s = format!(" {s}\t"),
            2 => s.insert(s.len() / 2, 'é'),
            3 => s.insert(0, '中'),
            4 => s.push(' '),
            _ => {}
        }
        s
    }

    proptest! {
        #[test]
        fn offset_scan_equals_the_label_vector_extractor(
            labels in proptest::collection::vec("[a-zA-Z0-9*_-]{0,6}", 0..5),
            suffix in any::<u32>(),
            flags in any::<u32>(),
        ) {
            let s = domainish(&labels, suffix as usize, flags);
            let got = extract_domain(&s);
            prop_assert_eq!(&got, &reference_extract(&s), "{:?}", s);
            prop_assert_eq!(is_domain_name(&s), got.is_some(), "{:?}", s);
        }

        #[test]
        fn offset_scan_equals_the_extractor_on_any_text(s in "\\PC{0,40}") {
            prop_assert_eq!(extract_domain(&s), reference_extract(&s));
            prop_assert_eq!(is_domain_name(&s), extract_domain(&s).is_some());
        }
    }

    #[test]
    fn multi_suffixes_have_two_labels() {
        for suf in MULTI_SUFFIXES {
            assert_eq!(suf.matches('.').count(), 1, "{suf}");
            assert_eq!(*suf, suf.to_ascii_lowercase());
        }
        for tld in TLDS {
            assert_eq!(*tld, tld.to_ascii_lowercase());
        }
    }

    #[test]
    fn twin_edge_cases() {
        for s in [
            "a.com",
            "A.COM",
            "*.a.com",
            "*.*.a.com",
            "*.com",
            "x.*.com",
            "123.com",
            "1.2.3.com",
            "a.b.co.uk",
            "co.uk",
            "a.co.uk",
            "a.CO.UK",
            "a.com..",
            ".a.com",
            "a..com",
            "a.com.é",
            "é.a.com",
            "-a.com",
            "a-.com",
            "a_b.com",
            " www.Example.ORG. ",
            "www.example.og",
        ] {
            assert_eq!(extract_domain(s), reference_extract(s), "{s:?}");
            assert_eq!(is_domain_name(s), extract_domain(s).is_some(), "{s:?}");
        }
    }

    #[test]
    fn simple_domains() {
        let p = extract_domain("www.example.com").unwrap();
        assert_eq!(p.tld, "com");
        assert_eq!(p.sld, "example");
        assert_eq!(p.subdomain, "www");
        assert_eq!(p.registered_domain(), "example.com");
    }

    #[test]
    fn paper_slds() {
        for (input, sld, tld) in [
            ("ec2-3-91-1-2.compute-1.amazonaws.com", "amazonaws", "com"),
            ("endpoint.rapid7.com", "rapid7", "com"),
            ("edge.gpcloudservice.com", "gpcloudservice", "com"),
            ("idrive.com", "idrive", "com"),
            ("transfer.globus.org", "globus", "org"),
            ("fireboard.io", "fireboard", "io"),
            ("ayoba.me", "ayoba", "me"),
            ("tablodash.com", "tablodash", "com"),
        ] {
            let p = extract_domain(input).unwrap();
            assert_eq!((p.sld.as_str(), p.tld.as_str()), (sld, tld), "{input}");
        }
    }

    #[test]
    fn multi_label_suffixes() {
        let p = extract_domain("shop.example.co.uk").unwrap();
        assert_eq!(p.tld, "co.uk");
        assert_eq!(p.sld, "example");
        assert_eq!(p.subdomain, "shop");
    }

    #[test]
    fn wildcards_allowed() {
        let p = extract_domain("*.example.org").unwrap();
        assert_eq!(p.sld, "example");
        assert!(extract_domain("*.com").is_none());
    }

    #[test]
    fn free_text_rejected() {
        for s in [
            "John Smith",
            "WebRTC",
            "Hybrid Runbook Worker",
            "__transfer__",
            "localhost",
            "",
            "no-dots-here",
            "exa mple.com",
            "user@example.com",
            "..",
            "com",
        ] {
            assert!(extract_domain(s).is_none(), "{s:?}");
        }
    }

    #[test]
    fn unknown_tld_rejected() {
        assert!(extract_domain("host.notarealtld").is_none());
    }

    #[test]
    fn numeric_sld_rejected() {
        // "1.2.3.4"-like shapes must not be classified as domains.
        assert!(extract_domain("1.2.3.com").is_none());
    }

    #[test]
    fn trailing_dot_ok() {
        assert!(extract_domain("example.com.").is_some());
    }

    #[test]
    fn case_insensitive() {
        let p = extract_domain("WWW.EXAMPLE.COM").unwrap();
        assert_eq!(p.registered_domain(), "example.com");
    }
}
