//! A substring test for short haystacks.

/// [`str::contains`] for the short haystacks the classifiers search
/// (normalized issuer organizations, issuer DNs, CN/SAN text): a
/// first-byte scan with a slice compare per hit, and no searcher to set up
/// per call. UTF-8 is self-synchronizing, so a byte match of one valid
/// string inside another is a character match, as in `str::contains`.
pub fn contains_short(hay: &str, needle: &str) -> bool {
    let (h, n) = (hay.as_bytes(), needle.as_bytes());
    let Some((&first, rest)) = n.split_first() else {
        return true;
    };
    h.len() >= n.len()
        && h[..=h.len() - n.len()]
            .iter()
            .enumerate()
            .any(|(i, &b)| b == first && &h[i + 1..i + n.len()] == rest)
}
