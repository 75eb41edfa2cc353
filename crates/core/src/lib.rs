//! The mtlscope analysis library — the reproduced paper's contribution.
//!
//! Input: Zeek-style `ssl.log` + `x509.log` records, a CT log, and the
//! out-of-band knowledge the paper's pipeline also had (university subnets,
//! campus CA names, root-store membership). Output: one typed report per
//! table/figure in the paper's evaluation, plus text renderings.
//!
//! Pipeline stages (mirroring §3.2):
//!
//! 1. **Interception filtering** ([`pipeline::interception`]) — identify
//!    TLS-interception issuers by comparing observed server-leaf issuers
//!    against the CT log, and exclude their certificates.
//! 2. **Corpus construction** ([`corpus`]) — join `ssl.log` and `x509.log`,
//!    dedup certificates, derive direction, mutual-TLS flags, server
//!    associations, issuer categories, and per-certificate activity spans.
//! 3. **Analysis** ([`analyze`]) — one module per experiment, each a pure
//!    function of the corpus. The per-experiment index lives in DESIGN.md §3.
//!
//! # Example
//!
//! ```
//! use mtls_core::{run_pipeline, AnalysisInputs};
//! use mtls_netsim::{generate, SimConfig};
//!
//! // Simulate a small campus capture, then run every experiment on it.
//! let sim = generate(&SimConfig { seed: 7, scale: 0.02, ..SimConfig::default() });
//! let out = run_pipeline(AnalysisInputs::from_sim(sim));
//!
//! // Fig. 1: monthly mutual-TLS prevalence over the 23-month window.
//! assert_eq!(out.fig1.months.len(), 23);
//! // Table 1: the unique-certificate census saw both roles.
//! assert!(out.tab1.server.total > 0 && out.tab1.client.total > 0);
//! // Each report renders to the text form the paper prints.
//! assert!(out.fig1.render().contains("mTLS share"));
//! ```

pub mod analyze;
pub mod columns;
pub mod corpus;
pub mod export;
pub mod ingest;
pub mod pipeline;
pub mod report;
pub mod report_ascii;
pub mod stream;
pub mod verdict;

pub mod testutil;

pub use columns::{CertColumns, ConnColumns};
pub use corpus::{Corpus, Direction, ServerAssociation};
pub use ingest::{
    load_dir, load_dir_obs, load_dir_streaming_obs, IngestDiagnostics, IngestError, StreamOptions,
};
pub use mtls_zeek::IngestMode;
pub use pipeline::{
    build_corpus_obs, run_pipeline, run_pipeline_obs, run_pipeline_parallel_obs,
    run_pipeline_streamed_parallel_obs, AnalysisInputs, PipelineOutput,
};
pub use stream::{CorpusBuilder, StreamParts, StreamSummary};
pub use verdict::{cert_verdict_der, record_verdict, shard_verdict, VerdictContext};
