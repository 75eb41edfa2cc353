//! # mtlscope
//!
//! A reproduction of *"Mutual TLS in Practice: A Deep Dive into Certificate
//! Configurations and Privacy Issues"* (IMC 2024): a passive mutual-TLS
//! measurement toolkit plus the synthetic campus-network substrate that
//! stands in for the paper's closed dataset (see `DESIGN.md`).
//!
//! This crate is the facade: it re-exports every workspace crate under one
//! namespace and hosts the runnable examples and cross-crate integration
//! tests.
//!
//! ## Quick start
//!
//! ```
//! use mtlscope::netsim::{generate, SimConfig};
//! use mtlscope::core::{run_pipeline, AnalysisInputs};
//!
//! // A tiny corpus (1 % of the default volume) for demonstration.
//! let sim = generate(&SimConfig { seed: 42, scale: 0.01, ..Default::default() });
//! let out = run_pipeline(AnalysisInputs::from_sim(sim));
//! assert!(out.tab1.all.total > 100);
//! println!("{}", out.tab1.render());
//! ```
//!
//! ## Layer map
//!
//! | module | crate | role |
//! |---|---|---|
//! | [`asn1`] | `mtls-asn1` | strict DER codec |
//! | [`crypto`] | `mtls-crypto` | SHA-256, HMAC, simsig |
//! | [`x509`] | `mtls-x509` | certificate model |
//! | [`pki`] | `mtls-pki` | CAs, trust stores, chains, CT |
//! | [`tlssim`] | `mtls-tlssim` | wire simulation + passive monitor |
//! | [`zeek`] | `mtls-zeek` | ssl.log / x509.log records + TSV |
//! | [`netsim`] | `mtls-netsim` | the campus traffic generator |
//! | [`classify`] | `mtls-classify` | CN/SAN information classifier |
//! | [`intern`] | `mtls-intern` | string interning + fast hashing |
//! | [`obs`] | `mtls-obs` | spans, metrics registry, sinks |
//! | [`core`] | `mtls-core` | the analysis pipeline (the paper) |
//! | [`serve`] | `mtls-serve` | the mTLS-terminated analysis service |
//!
//! The workspace also ships the `mtlscope` binary (`src/bin/mtlscope.rs`)
//! with `serve` and `metrics` subcommands — the online face of the
//! same analysis (DESIGN.md §11).

pub use mtls_asn1 as asn1;
pub use mtls_classify as classify;
pub use mtls_core as core;
pub use mtls_crypto as crypto;
pub use mtls_intern as intern;
pub use mtls_netsim as netsim;
pub use mtls_obs as obs;
pub use mtls_pki as pki;
pub use mtls_serve as serve;
pub use mtls_tlssim as tlssim;
pub use mtls_x509 as x509;
pub use mtls_zeek as zeek;
