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

/// Organizations up to this many bytes normalize on the stack.
const STACK_NORM: usize = 128;

/// [`normalize_org`] for ASCII input, byte by byte into `buf` (at least
/// `org.len()` bytes); returns the normalized length, or `None` at the
/// first non-ASCII byte, where only the char path knows which characters
/// are alphanumeric.
fn normalize_ascii(org: &[u8], buf: &mut [u8]) -> Option<usize> {
    let mut len = 0;
    let mut last_space = true;
    for &b in org {
        if !b.is_ascii() {
            return None;
        }
        if b.is_ascii_alphanumeric() {
            buf[len] = b.to_ascii_lowercase();
            len += 1;
            last_space = false;
        } else if !last_space {
            buf[len] = b' ';
            len += 1;
            last_space = true;
        }
    }
    if last_space && len > 0 {
        len -= 1;
    }
    Some(len)
}

/// Run `f` on [`normalize_org`] of `org`. ASCII input up to
/// [`STACK_NORM`] bytes normalizes into a stack buffer; anything else
/// takes the char path and its `String`.
fn with_normalized_org<R>(org: &str, f: impl FnOnce(&str) -> R) -> R {
    let mut stack = [0u8; STACK_NORM];
    if org.len() <= STACK_NORM {
        if let Some(len) = normalize_ascii(org.as_bytes(), &mut stack) {
            return f(std::str::from_utf8(&stack[..len]).expect("normalized text is ASCII"));
        }
    }
    f(&normalize_org(org))
}

/// Byte-wise Levenshtein distance with an early-exit cap: exact up to
/// `cap`, and some value above `cap` past it.
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

/// The two-row Levenshtein DP over caller-provided rows of `b.len() + 1`,
/// computed only in the band `|i - j| <= cap`: a cell outside it is at
/// least `|i - j|`, past the cap, so every cell is clamped to `cap + 1`
/// and the band's edges read that value. The lengths differ by at most
/// `cap`, so every row's band and the last cell lie inside `b`.
fn levenshtein<'r>(
    a: &[u8],
    b: &[u8],
    cap: usize,
    mut prev: &'r mut [usize],
    mut cur: &'r mut [usize],
) -> usize {
    debug_assert!(a.len().abs_diff(b.len()) <= cap);
    let over = cap + 1;
    for (j, p) in prev.iter_mut().enumerate() {
        *p = j.min(over);
    }
    for (i, &ca) in a.iter().enumerate() {
        let row = i + 1;
        let lo = row.saturating_sub(cap).max(1);
        let hi = (row + cap).min(b.len());
        cur[lo - 1] = if lo == 1 { row.min(over) } else { over };
        let mut row_min = cur[lo - 1];
        for j in lo..=hi {
            let cost = usize::from(ca != b[j - 1]);
            cur[j] = (prev[j - 1] + cost)
                .min(prev[j] + 1)
                .min(cur[j - 1] + 1)
                .min(over);
            row_min = row_min.min(cur[j]);
        }
        if hi < b.len() {
            cur[hi + 1] = over;
        }
        if row_min > cap {
            return over;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Whether the organization fuzzily matches a known dummy default
/// (edit distance ≤ 2 after normalization).
pub fn is_dummy_org(org: &str) -> bool {
    with_normalized_org(org, is_dummy_norm)
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
    with_normalized_org(org, |norm| {
        let dummy = is_dummy_norm(norm);
        let category = if is_public {
            IssuerCategory::Public
        } else if dummy {
            IssuerCategory::Dummy
        } else {
            private_category(norm)
        };
        OrgClass { category, dummy }
    })
}

/// The keyword rules' verdict on a normalized organization: Education if
/// any [`EDUCATION_KEYWORDS`] entry occurs in it, else Government for
/// [`GOVERNMENT_KEYWORDS`], else WebHosting for [`WEBHOSTING_NAMES`] or
/// "hosting". One pass over `norm`: at each byte only the keywords that
/// start with it are compared.
fn keyword_category(norm: &str) -> Option<IssuerCategory> {
    type Bucket = Vec<(&'static str, IssuerCategory)>;
    static BY_FIRST_BYTE: OnceLock<Vec<Bucket>> = OnceLock::new();
    let index = BY_FIRST_BYTE.get_or_init(|| {
        let rules = [
            (EDUCATION_KEYWORDS, IssuerCategory::Education),
            (GOVERNMENT_KEYWORDS, IssuerCategory::Government),
            (WEBHOSTING_NAMES, IssuerCategory::WebHosting),
            (&["hosting"], IssuerCategory::WebHosting),
        ];
        let mut index = vec![Bucket::new(); 128];
        for (keywords, category) in rules {
            for k in keywords {
                index[usize::from(k.as_bytes()[0])].push((k, category));
            }
        }
        index
    });
    let bytes = norm.as_bytes();
    let mut found = None;
    for (i, &b) in bytes.iter().enumerate() {
        for &(k, category) in index.get(usize::from(b)).into_iter().flatten() {
            // Education < Government < WebHosting in the enum's order.
            if bytes[i..].starts_with(k.as_bytes()) {
                found = Some(found.map_or(category, |f: IssuerCategory| f.min(category)));
            }
        }
    }
    found
}

/// The private-issuer rules after the dummy test, on a normalized,
/// non-dummy organization.
fn private_category(norm: &str) -> IssuerCategory {
    if norm.is_empty() {
        return IssuerCategory::MissingIssuer;
    }
    if let Some(category) = keyword_category(norm) {
        return category;
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
        fn ascii_normalization_equals_the_char_path(org in "[ -~]{0,160}") {
            // Lengths past STACK_NORM check the byte path itself, with a
            // buffer of the input's length.
            let mut buf = vec![0u8; org.len()];
            let len = normalize_ascii(org.as_bytes(), &mut buf).expect("ASCII input");
            prop_assert_eq!(std::str::from_utf8(&buf[..len]).unwrap(), normalize_org(&org));
            prop_assert_eq!(with_normalized_org(&org, str::to_string), normalize_org(&org));
        }

        #[test]
        fn stack_normalization_equals_the_char_path_on_any_text(org in "\\PC{0,40}") {
            prop_assert_eq!(with_normalized_org(&org, str::to_string), normalize_org(&org));
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
        let norm = |org: &str| with_normalized_org(org, str::to_string);
        assert_eq!(norm("  GoDaddy.com,  Inc. "), "godaddy com inc");
        assert_eq!(norm("...."), "");
        // Non-ASCII input leaves the byte path for the char path.
        assert_eq!(normalize_ascii("ÉCOLE".as_bytes(), &mut [0; 8]), None);
        assert_eq!(norm("École Normale, S.A."), "École normale s a");
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
