//! Ingest fault-tolerance: parse modes and structured skip diagnostics.
//!
//! A 23-month rotated capture arrives with truncated lines, non-UTF-8
//! garbage, and half-written shards. The readers support two modes:
//! [`IngestMode::Strict`] aborts on the first malformed row (the historical
//! behavior, and still the default), while [`IngestMode::Lenient`] skips
//! malformed rows and quarantines unreadable shards, recording every skip
//! here so a corrupt corpus can never silently masquerade as a clean one.

use crate::tsv::TsvError;

/// How the TSV readers treat malformed input.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IngestMode {
    /// Abort on the first malformed row or shard.
    #[default]
    Strict,
    /// Skip malformed data rows and quarantine shards that fail to open or
    /// have a bad header, recording each skip in a [`ShardDiag`].
    Lenient,
}

impl IngestMode {
    /// Lowercase name, as printed in reports.
    pub fn label(self) -> &'static str {
        match self {
            IngestMode::Strict => "strict",
            IngestMode::Lenient => "lenient",
        }
    }
}

/// Classification of a skipped row or quarantined shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ErrorKind {
    /// A data line with the wrong number of columns.
    ColumnCount,
    /// A column that failed to parse as its field type.
    BadField,
    /// A data line that is not valid UTF-8.
    NonUtf8,
    /// A missing or mismatched `#fields` header (quarantines the shard).
    BadHeader,
    /// An I/O failure opening or reading the shard (quarantines it).
    Io,
}

/// Every [`ErrorKind`], in rendering order.
pub const ERROR_KINDS: [ErrorKind; 5] = [
    ErrorKind::ColumnCount,
    ErrorKind::BadField,
    ErrorKind::NonUtf8,
    ErrorKind::BadHeader,
    ErrorKind::Io,
];

impl ErrorKind {
    /// Stable lowercase label (TSV export column names).
    pub fn label(self) -> &'static str {
        match self {
            ErrorKind::ColumnCount => "column_count",
            ErrorKind::BadField => "bad_field",
            ErrorKind::NonUtf8 => "non_utf8",
            ErrorKind::BadHeader => "bad_header",
            ErrorKind::Io => "io",
        }
    }

    /// Index into an `[u64; ERROR_KINDS.len()]` counter array.
    pub fn index(self) -> usize {
        match self {
            ErrorKind::ColumnCount => 0,
            ErrorKind::BadField => 1,
            ErrorKind::NonUtf8 => 2,
            ErrorKind::BadHeader => 3,
            ErrorKind::Io => 4,
        }
    }

    /// Classify a [`TsvError`].
    pub fn of(err: &TsvError) -> ErrorKind {
        match err {
            TsvError::Io(_) => ErrorKind::Io,
            TsvError::ColumnCount { .. } => ErrorKind::ColumnCount,
            TsvError::BadField { .. } => ErrorKind::BadField,
            TsvError::NonUtf8 { .. } => ErrorKind::NonUtf8,
            TsvError::BadHeader => ErrorKind::BadHeader,
        }
    }
}

/// How many offending lines each shard keeps verbatim (beyond this, only
/// the counters grow).
pub const MAX_SAMPLES: usize = 5;

/// Longest sampled-line snippet kept, in bytes of the lossy decoding.
const MAX_SNIPPET: usize = 120;

/// One sampled offending line (or shard-level failure).
#[derive(Debug, Clone)]
pub struct SkipSample {
    /// 1-based line number within the shard (0 for shard-level failures).
    pub line: usize,
    /// Byte offset of the line start within the shard.
    pub byte_offset: u64,
    pub kind: ErrorKind,
    /// Human-readable description of the parse failure.
    pub detail: String,
    /// The offending line, lossily decoded and truncated.
    pub snippet: String,
}

/// Per-shard parse accounting: rows and bytes parsed, skips by error kind,
/// the first [`MAX_SAMPLES`] offending lines, and parse wall time.
#[derive(Debug, Clone, Default)]
pub struct ShardDiag {
    /// Shard file name (`ssl.2022-05.log`, or `ssl.log` for singletons).
    pub shard: String,
    /// Data rows successfully parsed.
    pub rows_parsed: u64,
    /// Raw bytes read from the shard.
    pub bytes_read: u64,
    /// Skipped-row counts, indexed by [`ErrorKind::index`].
    pub skipped: [u64; ERROR_KINDS.len()],
    /// First [`MAX_SAMPLES`] offending lines.
    pub samples: Vec<SkipSample>,
    /// Set when the whole shard was skipped (lenient mode only).
    pub quarantined: Option<SkipSample>,
    /// Wall time spent opening and parsing this shard.
    pub wall_micros: u64,
}

impl ShardDiag {
    pub fn new(shard: impl Into<String>) -> ShardDiag {
        ShardDiag {
            shard: shard.into(),
            ..ShardDiag::default()
        }
    }

    /// Total rows skipped, across every error kind.
    pub fn rows_skipped(&self) -> u64 {
        self.skipped.iter().sum()
    }

    /// Skip count for one error kind.
    pub fn skipped_of(&self, kind: ErrorKind) -> u64 {
        self.skipped[kind.index()]
    }

    /// Record one skipped data line.
    pub fn record_skip(&mut self, err: &TsvError, byte_offset: u64, line_no: usize, raw: &[u8]) {
        let kind = ErrorKind::of(err);
        self.skipped[kind.index()] += 1;
        if self.samples.len() < MAX_SAMPLES {
            self.samples.push(SkipSample {
                line: line_no,
                byte_offset,
                kind,
                detail: err.to_string(),
                snippet: snippet_of(raw),
            });
        }
    }

    /// Mark the whole shard as quarantined (failed to open, or bad header).
    pub fn quarantine(&mut self, err: &TsvError) {
        self.quarantined = Some(SkipSample {
            line: 0,
            byte_offset: 0,
            kind: ErrorKind::of(err),
            detail: err.to_string(),
            snippet: String::new(),
        });
    }
}

fn snippet_of(raw: &[u8]) -> String {
    let mut s = String::from_utf8_lossy(raw).into_owned();
    if s.len() > MAX_SNIPPET {
        let mut cut = MAX_SNIPPET;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        s.truncate(cut);
        s.push('…');
    }
    s
}

/// Aggregate diagnostics for one directory read: every shard's
/// [`ShardDiag`] plus corpus-wide totals.
#[derive(Debug, Clone, Default)]
pub struct IngestStats {
    pub mode: IngestMode,
    /// One entry per shard, in the order the files were read: month by
    /// month (ssl before x509 within a month) for a rotated directory,
    /// `ssl.log` then `x509.log` for the flat pair.
    pub shards: Vec<ShardDiag>,
    pub rows_parsed: u64,
    pub rows_skipped: u64,
    pub bytes_read: u64,
    /// Shards skipped whole (lenient mode: open failure or bad header).
    pub shards_quarantined: u64,
    /// Wall time for the whole directory read.
    pub wall_micros: u64,
}

impl IngestStats {
    /// Skipped fraction of all attempted rows; each quarantined shard
    /// counts as one bad unit so an unreadable shard can never be free.
    /// Returns 0.0 for an empty corpus.
    pub fn error_rate(&self) -> f64 {
        let bad = self.rows_skipped + self.shards_quarantined;
        let attempted = self.rows_parsed + bad;
        if attempted == 0 {
            0.0
        } else {
            bad as f64 / attempted as f64
        }
    }

    /// Fold one shard into the totals.
    pub fn absorb(&mut self, diag: ShardDiag) {
        self.rows_parsed += diag.rows_parsed;
        self.rows_skipped += diag.rows_skipped();
        self.bytes_read += diag.bytes_read;
        if diag.quarantined.is_some() {
            self.shards_quarantined += 1;
        }
        self.shards.push(diag);
    }

    /// Fold another stats block into this one — the incremental-ingest
    /// accumulator. An epoch-by-epoch walk absorbs each month's stats
    /// here so `error_rate()` is always evaluated over the *cumulative*
    /// totals: a guard checked per month would silently pass a corpus
    /// whose early months were clean and late months garbage. Wall times
    /// sum (the epochs ran sequentially).
    pub fn absorb_stats(&mut self, other: IngestStats) {
        self.rows_parsed += other.rows_parsed;
        self.rows_skipped += other.rows_skipped;
        self.bytes_read += other.bytes_read;
        self.shards_quarantined += other.shards_quarantined;
        self.wall_micros += other.wall_micros;
        self.shards.extend(other.shards);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_kind_indexes_are_consistent() {
        for (i, kind) in ERROR_KINDS.iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
        }
    }

    #[test]
    fn samples_cap_at_max() {
        let mut diag = ShardDiag::new("ssl.log");
        for i in 0..MAX_SAMPLES + 3 {
            diag.record_skip(&TsvError::BadHeader, i as u64, i + 1, b"line");
        }
        assert_eq!(diag.samples.len(), MAX_SAMPLES);
        assert_eq!(diag.rows_skipped(), (MAX_SAMPLES + 3) as u64);
    }

    #[test]
    fn snippets_truncate_on_char_boundaries() {
        let long: String = "é".repeat(200);
        let s = snippet_of(long.as_bytes());
        assert!(s.ends_with('…'));
        assert!(s.len() <= MAX_SNIPPET + '…'.len_utf8());
    }

    #[test]
    fn error_rate_counts_quarantines() {
        let stats = IngestStats {
            rows_parsed: 98,
            rows_skipped: 1,
            shards_quarantined: 1,
            ..IngestStats::default()
        };
        assert!((stats.error_rate() - 0.02).abs() < 1e-12);
        assert_eq!(IngestStats::default().error_rate(), 0.0);
    }
}
