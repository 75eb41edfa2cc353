//! Gazetteer-based named-entity recognition over free-text CN/SAN values.
//!
//! The stand-in for spaCy's transformer NER (DESIGN.md §1). Personal names
//! are recognized as `Given Surname` / `Surname, Given` (plus middle
//! initials) against the embedded name lists; organizations and products by
//! gazetteer membership or a legal-suffix heuristic. Per the paper, the
//! product and organization labels are merged into one *Org/Product* bucket.

use crate::gazetteer::{contains_ci, GIVEN_NAMES, ORGANIZATIONS, ORG_SUFFIXES, PRODUCTS, SURNAMES};
use mtls_intern::contains_short;
use std::sync::OnceLock;

/// NER verdicts (already merged the way Table 8 reports them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NerLabel {
    Person,
    OrgOrProduct,
}

fn is_title_case(token: &str) -> bool {
    let mut chars = token.chars();
    match chars.next() {
        Some(c) if c.is_ascii_uppercase() => chars.all(|c| c.is_ascii_lowercase() || c == '\''),
        _ => false,
    }
}

/// Personal-name detector.
pub fn is_personal_name(text: &str) -> bool {
    let t = text.trim().trim_end_matches(['.', ',']);
    // "Surname, Given" form.
    if let Some((last, first)) = t.split_once(',') {
        let last = last.trim();
        let first = first.trim();
        if !last.is_empty()
            && !first.is_empty()
            && contains_ci(SURNAMES, last)
            && contains_ci(GIVEN_NAMES, first.split(' ').next().unwrap_or(""))
        {
            return true;
        }
    }
    // "Given [Q.] Surname": 2–4 title-case tokens (or middle initials).
    let (mut tokens, mut first, mut last) = (0, "", "");
    for tok in t.split([' ', '\t']).filter(|t| !t.is_empty()) {
        tokens += 1;
        if tokens > 4 || !(is_title_case(tok) || (tok.len() == 2 && tok.ends_with('.'))) {
            return false;
        }
        if tokens == 1 {
            first = tok;
        }
        last = tok;
    }
    tokens >= 2 && contains_ci(GIVEN_NAMES, first) && contains_ci(SURNAMES, last)
}

/// The multi-word gazetteer entries, picked out once per process.
fn phrases() -> &'static [&'static str] {
    static PHRASES: OnceLock<Vec<&'static str>> = OnceLock::new();
    PHRASES.get_or_init(|| {
        PRODUCTS
            .iter()
            .chain(ORGANIZATIONS)
            .copied()
            .filter(|e| e.contains(' '))
            .collect()
    })
}

/// Inputs up to this many bytes are normalized in a stack buffer.
const STACK_NORM: usize = 128;

/// Organization/product detector.
pub fn is_org_or_product(text: &str) -> bool {
    let t = text.trim();
    if t.is_empty() {
        return false;
    }
    // Whole-string gazetteer hits (products can be multi-word).
    if contains_ci(PRODUCTS, t) || contains_ci(ORGANIZATIONS, t) {
        return true;
    }
    // Lowercase ASCII letters, digits and `&`; every other character
    // (a multi-byte one included) becomes one space. UTF-8 continuation
    // bytes are skipped so a character maps to exactly one byte.
    let mut stack = [0u8; STACK_NORM];
    let mut heap = Vec::new();
    let buf: &mut [u8] = if t.len() <= STACK_NORM {
        &mut stack
    } else {
        heap.resize(t.len(), 0);
        &mut heap
    };
    let mut len = 0;
    for &b in t.as_bytes() {
        if b & 0xC0 == 0x80 {
            continue;
        }
        buf[len] = if b.is_ascii_alphanumeric() || b == b'&' {
            b.to_ascii_lowercase()
        } else {
            b' '
        };
        len += 1;
    }
    let norm = std::str::from_utf8(&buf[..len]).expect("normalized text is ASCII");
    // Any token is a known org/product name ("Lenovo ThinkPad X1",
    // "twilio:gateway-7", "Apple iPhone Device").
    let tokens = || norm.split(' ').filter(|x| !x.is_empty());
    if tokens().any(|tok| PRODUCTS.contains(&tok) || ORGANIZATIONS.contains(&tok)) {
        return true;
    }
    // Multi-word phrase hits ("hybrid runbook worker" inside a longer CN).
    if phrases().iter().any(|e| contains_short(norm, e)) {
        return true;
    }
    // Legal-suffix heuristic: >= 2 tokens ending in a corporate suffix.
    let mut rev = tokens().rev();
    rev.next().is_some_and(|last| ORG_SUFFIXES.contains(&last)) && rev.next().is_some()
}

/// Run NER; `None` means unidentified.
pub fn label(text: &str) -> Option<NerLabel> {
    if is_personal_name(text) {
        Some(NerLabel::Person)
    } else if is_org_or_product(text) {
        Some(NerLabel::OrgOrProduct)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_simple_names() {
        for name in [
            "John Smith",
            "Mary Johnson",
            "Sarah Lee",
            "Hongying Dong",
            "Robert Q. Wilson",
            "Smith, John",
        ] {
            assert_eq!(label(name), Some(NerLabel::Person), "{name}");
        }
    }

    #[test]
    fn rejects_non_names() {
        for s in [
            "WebRTC",
            "host-1234",
            "GET index",
            "john smith", // lowercase: certificate CNs with real names are title-case
            "Xq Zv",      // title case but not in gazetteers
            "John",       // single token
        ] {
            assert_ne!(label(s), Some(NerLabel::Person), "{s}");
        }
    }

    #[test]
    fn detects_products_and_orgs() {
        for s in [
            "WebRTC",
            "twilio",
            "hangouts",
            "Hybrid Runbook Worker",
            "Android Keystore",
            "Lenovo ThinkPad X1 Carbon",
            "Honeywell International Inc",
            "Outset Medical",
            "American Psychiatric Association",
            "Splunk",
        ] {
            assert_eq!(label(s), Some(NerLabel::OrgOrProduct), "{s}");
        }
    }

    #[test]
    fn unidentified_strings() {
        for s in [
            "f3a9c2d17b604e5d",
            "550e8400-e29b-41d4-a716-446655440000",
            "__transfer__",
            "hmpp",
            "",
            "a b c d e f", // too many tokens for a name, no org hits
        ] {
            assert_eq!(label(s), None, "{s:?}");
        }
    }

    #[test]
    fn person_beats_org_when_both_plausible() {
        // "James King": both tokens are also common words; gazetteer says
        // given+surname, and classify() checks Person first.
        assert_eq!(label("James King"), Some(NerLabel::Person));
    }

    #[test]
    fn org_suffix_requires_two_tokens() {
        assert_eq!(label("Inc"), None);
        assert_eq!(label("Acme Widgets Inc"), Some(NerLabel::OrgOrProduct));
    }
}
