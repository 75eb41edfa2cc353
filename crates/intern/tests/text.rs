//! `contains_short` against its twin, `str::contains`.

use mtls_intern::contains_short;
use proptest::prelude::*;

proptest! {
    #[test]
    fn short_substring_scan_equals_str_contains(
        hay in "[ab é]{0,24}",
        needle in "[ab é]{0,4}",
        any_hay in "\\PC{0,40}",
        cut in any::<usize>(),
        len in 0usize..6,
    ) {
        prop_assert_eq!(contains_short(&hay, &needle), hay.contains(needle.as_str()));
        prop_assert_eq!(contains_short(&any_hay, &needle), any_hay.contains(needle.as_str()));
        // A needle cut from the haystack at char boundaries is always found.
        let chars: Vec<char> = any_hay.chars().collect();
        let from = cut % (chars.len() + 1);
        let sub: String = chars[from..(from + len).min(chars.len())].iter().collect();
        prop_assert!(contains_short(&any_hay, &sub));
        prop_assert_eq!(contains_short(&sub, &any_hay), sub.contains(any_hay.as_str()));
    }
}

#[test]
fn edge_cases_match_str_contains() {
    for (hay, needle) in [
        ("", ""),
        ("", "a"),
        ("a", ""),
        ("abc", "abc"),
        ("abc", "abcd"),
        ("aab", "ab"),
        ("DigiCert Inc", "Inc"),
        ("é中", "中"),
        ("é", "\u{a9}"),
    ] {
        assert_eq!(
            contains_short(hay, needle),
            hay.contains(needle),
            "{hay:?} {needle:?}"
        );
    }
}
