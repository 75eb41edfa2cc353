//! Fast hashing and short substring search for the analysis hot paths.
//!
//! The paper's dataset repeats the same values millions of times: leaf
//! fingerprints once per connection, issuer strings and SAN domains
//! across every certificate a CA mints. The corpus join and the analyzers
//! key hash maps on those values, which are trusted measurement data, so
//! this crate offers two small pieces:
//!
//! * [`FxHasher`] — the FxHash multiply-xor hasher (rustc's internal table
//!   hasher), hand-rolled here in keeping with this workspace's
//!   no-external-deps style. [`FxHashMap`]/[`FxHashSet`] are drop-in map
//!   aliases for non-adversarial keys like fingerprints, borrowed strings
//!   and IPv4 integers.
//! * [`contains_short`] — the substring test the issuer and CN/SAN
//!   classifiers share.

pub mod hash;
pub mod text;

pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use text::contains_short;
