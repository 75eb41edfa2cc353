//! Issuer categorization (paper §4.2 "Methodology").
//!
//! The paper buckets client-certificate issuers into *Public* plus seven
//! private sub-categories by fuzzy-matching the issuer organization string.
//! This module reproduces that procedure: normalization, a small edit-
//! distance fuzzy match against known dummy strings, keyword gazetteers for
//! education/government/web-hosting, and a corporate-suffix heuristic.
//! Precedence mirrors the paper: missing issuer is checked first, public
//! trust is decided externally (trust stores), dummy strings beat the
//! corporate-suffix rule ("Internet Widgits Pty Ltd" ends in "Ltd" but is an
//! OpenSSL default, not a corporation).

use mtls_intern::contains_short;
use std::sync::OnceLock;

/// The issuer categories of Table 3 / Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IssuerCategory {
    /// Issuer (or chain) found in CCADB or a major trust store.
    Public,
    /// Private — recognized corporation name.
    Corporation,
    /// Private — universities and schools.
    Education,
    /// Private — government bodies.
    Government,
    /// Private — web-hosting providers.
    WebHosting,
    /// Private — software/protocol default strings (OpenSSL et al.).
    Dummy,
    /// Private — organization present but unrecognized.
    Others,
    /// Private — issuer organization absent.
    MissingIssuer,
}

impl IssuerCategory {
    /// Label as printed in the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            IssuerCategory::Public => "Public",
            IssuerCategory::Corporation => "Private - Corporation",
            IssuerCategory::Education => "Private - Education",
            IssuerCategory::Government => "Private - Government",
            IssuerCategory::WebHosting => "Private - WebHosting",
            IssuerCategory::Dummy => "Private - Dummy",
            IssuerCategory::Others => "Private - Others",
            IssuerCategory::MissingIssuer => "Private - MissingIssuer",
        }
    }

    /// All categories, for table rendering.
    pub const ALL: [IssuerCategory; 8] = [
        IssuerCategory::Public,
        IssuerCategory::Corporation,
        IssuerCategory::Education,
        IssuerCategory::Government,
        IssuerCategory::WebHosting,
        IssuerCategory::Dummy,
        IssuerCategory::Others,
        IssuerCategory::MissingIssuer,
    ];
}

impl std::fmt::Display for IssuerCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Software/protocol default organization strings (§5.1.1, Table 4).
pub const DUMMY_ORGS: &[&str] = &[
    "Internet Widgits Pty Ltd", // OpenSSL default
    "Default Company Ltd",
    "Unspecified",
    "Acme Co",
    "Example Inc",
    "SomeOrganization",
];

const EDUCATION_KEYWORDS: &[&str] = &[
    "university",
    "college",
    "school",
    "academy",
    "institute of technology",
    "polytechnic",
    "education",
];

const GOVERNMENT_KEYWORDS: &[&str] = &[
    "government",
    "ministry",
    "federal",
    "municipal",
    "city of",
    "state of",
    "county of",
    "national institute",
    "public health",
    "department of",
];

const WEBHOSTING_NAMES: &[&str] = &[
    "cpanel",
    "plesk",
    "bluehost",
    "hostgator",
    "dreamhost",
    "ovh",
    "hetzner",
    "namecheap",
    "hostinger",
    "webhost",
    "siteground",
    "ionos",
];

const CORPORATE_SUFFIXES: &[&str] = &[
    "inc",
    "incorporated",
    "llc",
    "ltd",
    "limited",
    "corp",
    "corporation",
    "co",
    "gmbh",
    "plc",
    "pty",
    "sa",
    "srl",
    "ag",
    "bv",
    "technologies",
    "systems",
    "labs",
    "software",
    "association",
];

/// Lowercase, strip punctuation, collapse whitespace.
pub fn normalize_org(org: &str) -> String {
    let mut out = String::with_capacity(org.len());
    let mut last_space = true;
    for ch in org.chars() {
        let c = ch.to_ascii_lowercase();
        if c.is_alphanumeric() {
            out.push(c);
            last_space = false;
        } else if !last_space {
            out.push(' ');
            last_space = true;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// Byte-wise Levenshtein distance with an early-exit cap.
pub fn edit_distance_capped(a: &str, b: &str, cap: usize) -> usize {
    let a = a.as_bytes();
    let b = b.as_bytes();
    if a.len().abs_diff(b.len()) > cap {
        return cap + 1;
    }
    // Organization strings are short: keep both DP rows on the stack.
    const STACK_ROW: usize = 64;
    if b.len() < STACK_ROW {
        let mut prev = [0usize; STACK_ROW];
        let mut cur = [0usize; STACK_ROW];
        levenshtein(a, b, cap, &mut prev[..=b.len()], &mut cur[..=b.len()])
    } else {
        levenshtein(
            a,
            b,
            cap,
            &mut vec![0; b.len() + 1],
            &mut vec![0; b.len() + 1],
        )
    }
}

/// The two-row Levenshtein DP over caller-provided rows of `b.len() + 1`.
fn levenshtein<'r>(
    a: &[u8],
    b: &[u8],
    cap: usize,
    mut prev: &'r mut [usize],
    mut cur: &'r mut [usize],
) -> usize {
    for (j, p) in prev.iter_mut().enumerate() {
        *p = j;
    }
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        let mut row_min = cur[0];
        for (j, &cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
            row_min = row_min.min(cur[j + 1]);
        }
        if row_min > cap {
            return cap + 1;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Whether the organization fuzzily matches a known dummy default
/// (edit distance ≤ 2 after normalization).
pub fn is_dummy_org(org: &str) -> bool {
    is_dummy_norm(&normalize_org(org))
}

/// [`is_dummy_org`] on an already-normalized string. [`DUMMY_ORGS`] is
/// normalized once per process, not once per call.
fn is_dummy_norm(norm: &str) -> bool {
    static DUMMY_NORMS: OnceLock<Vec<String>> = OnceLock::new();
    DUMMY_NORMS
        .get_or_init(|| DUMMY_ORGS.iter().map(|d| normalize_org(d)).collect())
        .iter()
        .any(|d| edit_distance_capped(norm, d, 2) <= 2)
}

/// What one normalization of an issuer organization yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrgClass {
    /// The §4.2 category.
    pub category: IssuerCategory,
    /// [`is_dummy_org`] on the trimmed organization; `false` when it is
    /// absent or blank. Public issuers get it too: the audit's dummy rule
    /// does not look at trust.
    pub dummy: bool,
}

/// Classify a (possibly absent) issuer organization string and run the
/// dummy test on it, normalizing it once. `is_public` is the externally-
/// decided trust-store verdict and wins the category outright.
pub fn classify_org(org: Option<&str>, is_public: bool) -> OrgClass {
    let Some(org) = org.map(str::trim).filter(|s| !s.is_empty()) else {
        return OrgClass {
            category: if is_public {
                IssuerCategory::Public
            } else {
                IssuerCategory::MissingIssuer
            },
            dummy: false,
        };
    };
    let norm = normalize_org(org);
    let dummy = is_dummy_norm(&norm);
    let category = if is_public {
        IssuerCategory::Public
    } else if dummy {
        IssuerCategory::Dummy
    } else {
        private_category(&norm)
    };
    OrgClass { category, dummy }
}

/// The private-issuer rules after the dummy test, on a normalized,
/// non-dummy organization.
fn private_category(norm: &str) -> IssuerCategory {
    if norm.is_empty() {
        return IssuerCategory::MissingIssuer;
    }
    let has = |keywords: &[&str]| keywords.iter().any(|k| contains_short(norm, k));
    if has(EDUCATION_KEYWORDS) {
        return IssuerCategory::Education;
    }
    if has(GOVERNMENT_KEYWORDS) {
        return IssuerCategory::Government;
    }
    if has(WEBHOSTING_NAMES) || contains_short(norm, "hosting") {
        return IssuerCategory::WebHosting;
    }
    // Corporate-suffix heuristic: last token is a recognized legal suffix,
    // or the name has >= 2 tokens and any token is a strong suffix. The
    // normalized form has single inner spaces and none at either end.
    let several_tokens = norm.contains(' ');
    let last = norm.rsplit(' ').next().unwrap_or(norm);
    if several_tokens
        && (CORPORATE_SUFFIXES.contains(&last)
            || norm
                .split(' ')
                .any(|t| matches!(t, "inc" | "llc" | "gmbh" | "corp")))
    {
        return IssuerCategory::Corporation;
    }
    IssuerCategory::Others
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The two-pass classifier [`classify_org`] replaced, kept as its twin.
    fn reference_category(org: Option<&str>, is_public: bool) -> IssuerCategory {
        if is_public {
            return IssuerCategory::Public;
        }
        let Some(org) = org.map(str::trim).filter(|s| !s.is_empty()) else {
            return IssuerCategory::MissingIssuer;
        };
        let norm = normalize_org(org);
        if norm.is_empty() {
            return IssuerCategory::MissingIssuer;
        }
        if is_dummy_norm(&norm) {
            return IssuerCategory::Dummy;
        }
        if EDUCATION_KEYWORDS.iter().any(|k| norm.contains(k)) {
            return IssuerCategory::Education;
        }
        if GOVERNMENT_KEYWORDS.iter().any(|k| norm.contains(k)) {
            return IssuerCategory::Government;
        }
        if WEBHOSTING_NAMES.iter().any(|k| norm.contains(k)) || norm.contains("hosting") {
            return IssuerCategory::WebHosting;
        }
        let tokens: Vec<&str> = norm.split(' ').collect();
        if let Some(last) = tokens.last() {
            if CORPORATE_SUFFIXES.contains(last) && tokens.len() >= 2 {
                return IssuerCategory::Corporation;
            }
        }
        if tokens.len() >= 2
            && tokens
                .iter()
                .any(|t| matches!(*t, "inc" | "llc" | "gmbh" | "corp"))
        {
            return IssuerCategory::Corporation;
        }
        IssuerCategory::Others
    }

    /// Organization-shaped text: words from every rule's vocabulary,
    /// punctuation and padding.
    fn org_from(picks: &[u32], seps: &str) -> String {
        let words: Vec<&str> = EDUCATION_KEYWORDS
            .iter()
            .chain(GOVERNMENT_KEYWORDS)
            .chain(WEBHOSTING_NAMES)
            .chain(CORPORATE_SUFFIXES)
            .chain(DUMMY_ORGS)
            .copied()
            .chain(["Hosting", "Acme", "Widgets", "INC.", "ÉCOLE", "", "  "])
            .collect();
        let mut out = String::new();
        for (i, p) in picks.iter().enumerate() {
            if i > 0 {
                out.push(seps.chars().nth(i % seps.len().max(1)).unwrap_or(' '));
            }
            out.push_str(words[*p as usize % words.len()]);
        }
        out
    }

    proptest! {
        #[test]
        fn one_normalization_equals_the_two_pass_classifier(
            picks in proptest::collection::vec(any::<u32>(), 0..4),
            seps in "[ ,.&-]{1,3}",
            public in any::<bool>(),
        ) {
            let org = org_from(&picks, &seps);
            let got = classify_org(Some(&org), public);
            prop_assert_eq!(got.category, reference_category(Some(&org), public), "{:?}", org);
            prop_assert_eq!(got.dummy, is_dummy_org(org.trim()));
        }

        #[test]
        fn one_normalization_equals_the_two_pass_classifier_on_any_text(
            org in "\\PC{0,40}",
            public in any::<bool>(),
        ) {
            let got = classify_org(Some(&org), public);
            prop_assert_eq!(got.category, reference_category(Some(&org), public));
        }

        #[test]
        fn stack_rows_equal_heap_rows(a in "[a-c]{0,70}", b in "[a-c]{0,70}", cap in 0usize..5) {
            // Rows of 64 and more take the heap path: compare both paths
            // against the full, uncapped DP.
            let full = |a: &[u8], b: &[u8]| {
                let mut d: Vec<Vec<usize>> = (0..=a.len()).map(|i| vec![i; b.len() + 1]).collect();
                for (j, cell) in d[0].iter_mut().enumerate() {
                    *cell = j;
                }
                for i in 1..=a.len() {
                    for j in 1..=b.len() {
                        let cost = usize::from(a[i - 1] != b[j - 1]);
                        d[i][j] = (d[i - 1][j - 1] + cost).min(d[i - 1][j] + 1).min(d[i][j - 1] + 1);
                    }
                }
                d[a.len()][b.len()]
            };
            // Within the cap the distance is exact; past it, above the cap.
            let exact = full(a.as_bytes(), b.as_bytes());
            let capped = edit_distance_capped(&a, &b, cap);
            if exact <= cap {
                prop_assert_eq!(capped, exact, "{} {}", a, b);
            } else {
                prop_assert!(capped > cap, "{} {}", a, b);
            }
        }
    }

    #[test]
    fn absent_and_blank_orgs_are_not_dummy() {
        for org in [None, Some(""), Some("   ")] {
            for public in [false, true] {
                let got = classify_org(org, public);
                assert!(!got.dummy);
                assert_eq!(got.category, reference_category(org, public));
            }
        }
    }

    #[test]
    fn public_wins() {
        assert_eq!(
            classify_org(Some("DigiCert Inc"), true).category,
            IssuerCategory::Public
        );
        assert_eq!(classify_org(None, true).category, IssuerCategory::Public);
    }

    #[test]
    fn missing_issuer() {
        assert_eq!(
            classify_org(None, false).category,
            IssuerCategory::MissingIssuer
        );
        assert_eq!(
            classify_org(Some(""), false).category,
            IssuerCategory::MissingIssuer
        );
        assert_eq!(
            classify_org(Some("   "), false).category,
            IssuerCategory::MissingIssuer
        );
    }

    #[test]
    fn dummy_strings_beat_corporate_suffix() {
        assert_eq!(
            classify_org(Some("Internet Widgits Pty Ltd"), false).category,
            IssuerCategory::Dummy
        );
        assert_eq!(
            classify_org(Some("Default Company Ltd"), false).category,
            IssuerCategory::Dummy
        );
        assert_eq!(
            classify_org(Some("Unspecified"), false).category,
            IssuerCategory::Dummy
        );
        assert_eq!(
            classify_org(Some("Acme Co"), false).category,
            IssuerCategory::Dummy
        );
    }

    #[test]
    fn dummy_fuzzy_variants() {
        // Trailing punctuation, case, small typos.
        assert!(is_dummy_org("internet widgits pty ltd."));
        assert!(is_dummy_org("Internet Widgits Pty Ltd "));
        assert!(is_dummy_org("Internet Widgit Pty Ltd")); // 1 deletion
        assert!(!is_dummy_org("Honeywell International Inc"));
        // Every default matches itself, raw and normalized.
        for org in DUMMY_ORGS {
            assert!(is_dummy_org(org), "{org}");
            assert!(is_dummy_org(&normalize_org(org)), "{org}");
        }
    }

    #[test]
    fn education() {
        assert_eq!(
            classify_org(Some("Commonwealth University"), false).category,
            IssuerCategory::Education
        );
        assert_eq!(
            classify_org(Some("Riverside Community College"), false).category,
            IssuerCategory::Education
        );
    }

    #[test]
    fn government() {
        assert_eq!(
            classify_org(Some("Ministry of Finance"), false).category,
            IssuerCategory::Government
        );
        assert_eq!(
            classify_org(Some("City of Springfield"), false).category,
            IssuerCategory::Government
        );
    }

    #[test]
    fn webhosting() {
        assert_eq!(
            classify_org(Some("cPanel, Inc."), false).category,
            IssuerCategory::WebHosting
        );
        assert_eq!(
            classify_org(Some("Acme Hosting Services"), false).category,
            IssuerCategory::WebHosting
        );
    }

    #[test]
    fn corporations() {
        for org in [
            "Honeywell International Inc",
            "Outset Medical, Inc.",
            "IDrive Inc Certificate Authority",
            "American Psychiatric Association",
            "Splunk Inc",
        ] {
            assert_eq!(
                classify_org(Some(org), false).category,
                IssuerCategory::Corporation,
                "{org}"
            );
        }
    }

    #[test]
    fn others() {
        for org in [
            "ViptelaClient",
            "GuardiCore",
            "rcgen",
            "SDS",
            "IceLink",
            "media-server",
            "Globus Online",
        ] {
            assert_eq!(
                classify_org(Some(org), false).category,
                IssuerCategory::Others,
                "{org}"
            );
        }
    }

    #[test]
    fn normalization() {
        assert_eq!(normalize_org("  GoDaddy.com,  Inc. "), "godaddy com inc");
        assert_eq!(normalize_org("A-B_C"), "a b c");
        assert_eq!(normalize_org("...."), "");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance_capped("abc", "abc", 2), 0);
        assert_eq!(edit_distance_capped("abc", "abd", 2), 1);
        assert_eq!(edit_distance_capped("abc", "xyz", 2), 3); // capped: cap+1
        assert_eq!(edit_distance_capped("", "ab", 2), 2);
        assert_eq!(edit_distance_capped("kitten", "sitting", 5), 3);
    }

    #[test]
    fn labels_match_paper() {
        assert_eq!(
            IssuerCategory::MissingIssuer.label(),
            "Private - MissingIssuer"
        );
        assert_eq!(IssuerCategory::Public.label(), "Public");
        assert_eq!(IssuerCategory::ALL.len(), 8);
    }
}
