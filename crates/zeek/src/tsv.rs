//! Zeek-TSV serialization.
//!
//! The format matches Zeek's ASCII writer closely enough that real tooling
//! habits transfer: `#separator \x09`, `#set_separator ,`, `#unset_field -`,
//! `#empty_field (empty)`, `#path`, `#fields`, `#types` headers, one record
//! per line, vectors comma-joined. Values containing the separator, the set
//! separator, or newlines are escaped as `\xNN` on write and unescaped on
//! read (Zeek itself forbids them; escaping keeps the round-trip total).

use crate::diag::{IngestMode, ShardDiag};
use crate::ip::Ipv4;
use crate::records::{SslRecord, TlsVersion, X509Record};
use crate::swar;
use mtls_crypto::Fp;
use std::borrow::Cow;
use std::io::{BufRead, Write};

/// Errors from reading a Zeek-TSV stream.
#[derive(Debug)]
pub enum TsvError {
    Io(std::io::Error),
    /// A data line had the wrong number of columns.
    ColumnCount {
        line: usize,
        expected: usize,
        got: usize,
    },
    /// A field failed to parse.
    BadField {
        line: usize,
        field: &'static str,
        value: String,
    },
    /// A data line is not valid UTF-8.
    NonUtf8 {
        line: usize,
    },
    /// The `#fields` header is missing or does not match the expected schema.
    BadHeader,
}

impl From<std::io::Error> for TsvError {
    fn from(e: std::io::Error) -> TsvError {
        TsvError::Io(e)
    }
}

impl std::fmt::Display for TsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TsvError::Io(e) => write!(f, "io error: {e}"),
            TsvError::ColumnCount {
                line,
                expected,
                got,
            } => {
                write!(f, "line {line}: expected {expected} columns, got {got}")
            }
            TsvError::BadField { line, field, value } => {
                write!(f, "line {line}: bad value for {field}: {value:?}")
            }
            TsvError::NonUtf8 { line } => write!(f, "line {line}: not valid UTF-8"),
            TsvError::BadHeader => write!(f, "missing or mismatched #fields header"),
        }
    }
}

impl std::error::Error for TsvError {}

const UNSET: &str = "-";
const EMPTY: &str = "(empty)";

/// The five bytes [`escape`] must rewrite (and the SWAR fast path probes
/// for, eight bytes at a time).
const ESCAPE_NEEDLES: [u8; 5] = [b'\t', b'\n', b'\r', b',', b'\\'];

/// Escape separator-colliding characters. The overwhelmingly common case —
/// no collision — borrows the input instead of allocating.
pub fn escape(s: &str) -> Cow<'_, str> {
    if !swar::contains_any5(s.as_bytes(), ESCAPE_NEEDLES) {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len() + 8);
    for ch in s.chars() {
        match ch {
            '\t' => out.push_str("\\x09"),
            '\n' => out.push_str("\\x0a"),
            '\r' => out.push_str("\\x0d"),
            ',' => out.push_str("\\x2c"),
            '\\' => out.push_str("\\x5c"),
            c => out.push(c),
        }
    }
    Cow::Owned(out)
}

/// Undo [`escape`]. Fields without `\xNN` sequences — nearly all of them —
/// borrow the input; callers that need ownership pay exactly one copy.
/// Total on arbitrary input: malformed or truncated escape sequences pass
/// through unchanged rather than erroring.
pub fn unescape(s: &str) -> Cow<'_, str> {
    if !swar::contains_seq2(s.as_bytes(), b'\\', b'x') {
        return Cow::Borrowed(s);
    }
    let mut out = String::with_capacity(s.len());
    unescape_into(s, &mut out);
    Cow::Owned(out)
}

/// [`unescape`] appended to `out`, so a reused field keeps its capacity.
/// Each literal run between `\xNN` escapes goes in with one `push_str`,
/// and each escape becomes the one char of its byte value; a field
/// without a backslash is one scan and one copy. The output is never
/// longer than `s`, so one reservation covers it.
pub fn unescape_into(s: &str, out: &mut String) {
    let bytes = s.as_bytes();
    out.reserve(s.len());
    let mut run = 0;
    let mut from = 0;
    while let Some(i) = swar::find_byte_from(bytes, from, b'\\') {
        match bytes.get(i + 1..i + 4) {
            Some(&[b'x', hi, lo]) if hi.is_ascii_hexdigit() && lo.is_ascii_hexdigit() => {
                // `i` holds an ASCII byte, so both slice edges are char
                // boundaries.
                out.push_str(&s[run..i]);
                out.push(char::from(hex_value(hi) << 4 | hex_value(lo)));
                run = i + 4;
                from = run;
            }
            _ => from = i + 1,
        }
    }
    out.push_str(&s[run..]);
}

/// The value of one ASCII hex digit.
fn hex_value(b: u8) -> u8 {
    match b {
        b'0'..=b'9' => b - b'0',
        b'a'..=b'f' => b - b'a' + 10,
        _ => b - b'A' + 10,
    }
}

fn opt_str(v: &Option<String>) -> Cow<'_, str> {
    match v {
        // A literal value equal to the unset/empty markers must be escaped
        // or it would read back as None (Zeek's format is ambiguous here).
        Some(s) if s == UNSET => Cow::Borrowed("\\x2d"),
        Some(s) if s == EMPTY => Cow::Owned(escape_markers(s)),
        Some(s) if !s.is_empty() => escape(s),
        _ => Cow::Borrowed(UNSET),
    }
}

/// Escape every character of a marker-colliding value.
fn escape_markers(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 4);
    for b in s.bytes() {
        out.push_str(&format!("\\x{b:02x}"));
    }
    out
}

fn vec_str(v: &[String]) -> Cow<'_, str> {
    if v.is_empty() {
        return Cow::Borrowed(EMPTY);
    }
    if let [only] = v {
        // Single-element fast path: borrow when clean, but a value that
        // collides with a marker must be escaped or it would read back as
        // unset/empty.
        let escaped = escape(only);
        if escaped == UNSET || escaped == EMPTY {
            return Cow::Owned(escape_markers(&escaped));
        }
        return escaped;
    }
    let mut joined = String::with_capacity(v.iter().map(|s| s.len() + 1).sum());
    for (i, s) in v.iter().enumerate() {
        if i > 0 {
            joined.push(',');
        }
        joined.push_str(&escape(s));
    }
    Cow::Owned(joined)
}

/// A fingerprint chain as a vector field: comma-joined, `(empty)` when
/// there is none. Hex digits never need escaping.
struct Chain<'a>(&'a [Fp]);

impl std::fmt::Display for Chain<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let Some((first, rest)) = self.0.split_first() else {
            return f.write_str(EMPTY);
        };
        f.write_str(first.as_str())?;
        for fp in rest {
            f.write_str(",")?;
            f.write_str(fp.as_str())?;
        }
        Ok(())
    }
}

fn parse_opt(s: &str) -> Option<String> {
    let mut out = None;
    set_opt(&mut out, s);
    out
}

/// Whether a vector field holds no values: `(empty)`, unset, or blank.
fn is_empty_vec(s: &str) -> bool {
    s == EMPTY || s == UNSET || s.is_empty()
}

/// Overwrite `dst` with the unescaped field, keeping its capacity.
fn set_str(dst: &mut String, s: &str) {
    dst.clear();
    unescape_into(s, dst);
}

/// Overwrite a field whose usual values are a few fixed names: one of
/// `known` borrows its static string, and any other value is unescaped
/// into an owned string (refilling the one already there, if any).
fn set_name(dst: &mut Cow<'static, str>, s: &str, known: &[&'static str]) {
    if let Some(&name) = known.iter().find(|&&k| k == s) {
        *dst = Cow::Borrowed(name);
    } else if let Cow::Owned(own) = dst {
        set_str(own, s);
    } else {
        *dst = Cow::Owned(unescape(s).into_owned());
    }
}

/// The `certificate.key_alg` values kept without a heap copy.
const KEY_ALGS: &[&str] = &["rsa", "ecdsa"];

/// The `certificate.sig_alg` values kept without a heap copy.
const SIG_ALGS: &[&str] = &[
    "sha256WithRSAEncryption",
    "sha1WithRSAEncryption",
    "ecdsa-with-SHA256",
    "md5WithRSAEncryption",
];

/// Overwrite an optional field: unset and empty read as `None`.
fn set_opt(dst: &mut Option<String>, s: &str) {
    if s == UNSET || s.is_empty() {
        *dst = None;
    } else {
        set_str(dst.get_or_insert_with(String::new), s);
    }
}

/// Overwrite a vector field, refilling the strings already in `dst` before
/// pushing new ones and dropping any left over.
fn set_vec(dst: &mut Vec<String>, s: &str) {
    let mut n = 0;
    if !is_empty_vec(s) {
        for part in swar::split_str(s, b',') {
            if n == dst.len() {
                dst.push(String::new());
            }
            set_str(&mut dst[n], part);
            n += 1;
        }
    }
    dst.truncate(n);
}

const SSL_FIELDS: &[&str] = &[
    "ts",
    "uid",
    "id.orig_h",
    "id.orig_p",
    "id.resp_h",
    "id.resp_p",
    "version",
    "server_name",
    "established",
    "cert_chain_fps",
    "client_cert_chain_fps",
];

const X509_FIELDS: &[&str] = &[
    "ts",
    "fingerprint",
    "certificate.version",
    "certificate.serial",
    "certificate.subject",
    "certificate.issuer",
    "certificate.issuer_org",
    "certificate.subject_cn",
    "certificate.not_valid_before",
    "certificate.not_valid_after",
    "certificate.key_alg",
    "certificate.key_length",
    "certificate.sig_alg",
    "san.dns",
    "san.email",
    "san.uri",
    "san.ip",
    "basic_constraints.ca",
];

fn write_header(
    w: &mut impl Write,
    path: &str,
    fields: &[&str],
    types: &[&str],
) -> std::io::Result<()> {
    writeln!(w, "#separator \\x09")?;
    writeln!(w, "#set_separator\t,")?;
    writeln!(w, "#empty_field\t(empty)")?;
    writeln!(w, "#unset_field\t-")?;
    writeln!(w, "#path\t{path}")?;
    writeln!(w, "#fields\t{}", fields.join("\t"))?;
    writeln!(w, "#types\t{}", types.join("\t"))?;
    Ok(())
}

/// Write an `ssl.log` stream. Accepts any iterator of record references,
/// so rotation can write grouped refs without cloning records first.
pub fn write_ssl_log<'a>(
    w: &mut impl Write,
    records: impl IntoIterator<Item = &'a SslRecord>,
) -> std::io::Result<()> {
    let types = [
        "time",
        "string",
        "addr",
        "port",
        "addr",
        "port",
        "string",
        "string",
        "bool",
        "vector[string]",
        "vector[string]",
    ];
    write_header(w, "ssl", SSL_FIELDS, &types)?;
    for r in records {
        writeln!(
            w,
            // `{}` on f64 emits the shortest representation that parses
            // back to the identical bits — lossless round-trips matter more
            // here than Zeek's cosmetic fixed-width 6 decimals.
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.ts,
            escape(&r.uid),
            r.orig_h,
            r.orig_p,
            r.resp_h,
            r.resp_p,
            r.version.zeek_name(),
            opt_str(&r.server_name),
            if r.established { "T" } else { "F" },
            Chain(&r.cert_chain_fps),
            Chain(&r.client_cert_chain_fps),
        )?;
    }
    writeln!(w, "#close")?;
    Ok(())
}

/// Write an `x509.log` stream. Accepts any iterator of record references,
/// so rotation can write grouped refs without cloning records first.
pub fn write_x509_log<'a>(
    w: &mut impl Write,
    records: impl IntoIterator<Item = &'a X509Record>,
) -> std::io::Result<()> {
    let types = [
        "time",
        "string",
        "count",
        "string",
        "string",
        "string",
        "string",
        "string",
        "time",
        "time",
        "string",
        "count",
        "string",
        "vector[string]",
        "vector[string]",
        "vector[string]",
        "vector[string]",
        "bool",
    ];
    write_header(w, "x509", X509_FIELDS, &types)?;
    for r in records {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.ts,
            r.fingerprint,
            r.version,
            escape(&r.serial),
            escape(&r.subject),
            escape(&r.issuer),
            opt_str(&r.issuer_org),
            opt_str(&r.subject_cn),
            r.not_valid_before,
            r.not_valid_after,
            escape(&r.key_alg),
            r.key_length,
            escape(&r.sig_alg),
            vec_str(&r.san_dns),
            vec_str(&r.san_email),
            vec_str(&r.san_uri),
            vec_str(&r.san_ip),
            if r.basic_constraints_ca { "T" } else { "F" },
        )?;
    }
    writeln!(w, "#close")?;
    Ok(())
}

struct LineParser<'a, 'b> {
    cols: &'b [&'a str],
    line_no: usize,
}

impl<'a> LineParser<'a, '_> {
    fn col(&self, i: usize) -> &'a str {
        self.cols[i]
    }

    /// The error for column `i`, named `field`.
    fn bad(&self, i: usize, field: &'static str) -> TsvError {
        TsvError::BadField {
            line: self.line_no,
            field,
            value: self.cols[i].to_string(),
        }
    }

    fn parse<T: std::str::FromStr>(&self, i: usize, field: &'static str) -> Result<T, TsvError> {
        self.cols[i].parse().map_err(|_| self.bad(i, field))
    }

    fn ip(&self, i: usize, field: &'static str) -> Result<Ipv4, TsvError> {
        Ipv4::parse(self.cols[i]).ok_or_else(|| self.bad(i, field))
    }

    fn boolean(&self, i: usize, field: &'static str) -> Result<bool, TsvError> {
        match self.cols[i] {
            "T" => Ok(true),
            "F" => Ok(false),
            _ => Err(self.bad(i, field)),
        }
    }

    /// A fingerprint: exactly 64 lowercase hex digits.
    fn fp(&self, i: usize, field: &'static str) -> Result<Fp, TsvError> {
        Fp::parse(self.cols[i]).ok_or_else(|| self.bad(i, field))
    }

    /// A chain of fingerprints, comma-separated. Every entry is 64
    /// digits, so a chain of `n` is `65 n - 1` bytes with a comma after
    /// each 64: the entries are read at that stride, into a `Vec` of
    /// exactly `n`, and any other shape is a bad field.
    fn fps(&self, i: usize, field: &'static str) -> Result<Vec<Fp>, TsvError> {
        const STRIDE: usize = Fp::LEN + 1;
        let s = self.cols[i].as_bytes();
        if is_empty_vec(self.cols[i]) {
            return Ok(Vec::new());
        }
        if !(s.len() + 1).is_multiple_of(STRIDE) {
            return Err(self.bad(i, field));
        }
        let mut out = Vec::with_capacity((s.len() + 1) / STRIDE);
        for entry in s.chunks(STRIDE) {
            let (digits, comma) = entry.split_at(Fp::LEN);
            match Fp::parse_bytes(digits) {
                Some(fp) if comma.is_empty() || comma == b"," => out.push(fp),
                _ => return Err(self.bad(i, field)),
            }
        }
        Ok(out)
    }
}

/// One data line, still raw bytes: lenient mode must survive (and count)
/// non-UTF-8 garbage, so decoding is deferred to per-line parse time.
struct RawLine<'a> {
    /// 1-based line number within the shard.
    no: usize,
    /// Byte offset of the line start within the shard.
    offset: u64,
    bytes: &'a [u8],
    /// The line as text, when the whole shard is valid UTF-8.
    text: Option<&'a str>,
}

impl<'a> RawLine<'a> {
    /// The line as text, or its `NonUtf8` error.
    fn decode(&self) -> Result<&'a str, TsvError> {
        match self.text {
            Some(text) => Ok(text),
            None => {
                std::str::from_utf8(self.bytes).map_err(|_| TsvError::NonUtf8 { line: self.no })
            }
        }
    }
}

/// Slice a raw buffer into data-line slices, checking the `#fields` header
/// along the way, in one walk over the lines. Header problems are
/// reported in *both* modes — a shard whose schema cannot be verified is
/// quarantined whole by the caller, not parsed on faith. No per-line
/// allocation: every entry borrows from `buf`. A buffer that is valid
/// UTF-8 as a whole (every clean shard) is checked once here, so its lines
/// need no check of their own.
fn raw_data_lines<'a>(
    buf: &'a [u8],
    expected_fields: &[&str],
) -> Result<Vec<RawLine<'a>>, TsvError> {
    let text = std::str::from_utf8(buf).ok();
    let mut out = Vec::new();
    let mut fields_seen = false;
    let mut offset = 0u64;
    for (idx, chunk) in swar::split_byte(buf, b'\n').enumerate() {
        let line_start = offset;
        offset += chunk.len() as u64 + 1;
        let line = match chunk.split_last() {
            Some((b'\r', rest)) => rest,
            _ => chunk,
        };
        if line.is_empty() {
            continue;
        }
        if line[0] == b'#' {
            if let Some(rest) = line.strip_prefix(b"#fields\t".as_slice()) {
                // A non-UTF-8 #fields line cannot match any schema.
                let rest = std::str::from_utf8(rest).map_err(|_| TsvError::BadHeader)?;
                if !rest.split('\t').eq(expected_fields.iter().copied()) {
                    return Err(TsvError::BadHeader);
                }
                fields_seen = true;
            }
            continue;
        }
        // `\n` and `\r` are ASCII, so the line's edges are char
        // boundaries of the text.
        let at = line_start as usize;
        out.push(RawLine {
            no: idx + 1,
            offset: line_start,
            bytes: line,
            text: text.map(|text| &text[at..at + line.len()]),
        });
    }
    if !fields_seen {
        return Err(TsvError::BadHeader);
    }
    Ok(out)
}

/// Drain a reader into one contiguous byte buffer; the parsers then borrow
/// line and column slices out of it instead of allocating per line.
fn slurp<R: BufRead>(mut reader: R) -> Result<Vec<u8>, TsvError> {
    let mut buf = Vec::new();
    reader.read_to_end(&mut buf)?;
    Ok(buf)
}

/// Split one data line into its columns, reusing the caller's column
/// buffer across lines.
fn split_cols<'a>(
    cols: &mut Vec<&'a str>,
    line: &'a str,
    line_no: usize,
    expected: usize,
) -> Result<(), TsvError> {
    cols.clear();
    // `str::split` semantics, one tab search per column.
    let mut start = 0;
    while let Some(tab) = swar::find_byte_from(line.as_bytes(), start, b'\t') {
        cols.push(&line[start..tab]);
        start = tab + 1;
    }
    cols.push(&line[start..]);
    if cols.len() != expected {
        return Err(TsvError::ColumnCount {
            line: line_no,
            expected,
            got: cols.len(),
        });
    }
    Ok(())
}

/// Decode one raw data line and split it into columns.
fn decode_line<'a>(
    cols: &mut Vec<&'a str>,
    raw: &RawLine<'a>,
    expected: usize,
) -> Result<(), TsvError> {
    split_cols(cols, raw.decode()?, raw.no, expected)
}

fn parse_ssl_line<'a>(cols: &mut Vec<&'a str>, raw: &RawLine<'a>) -> Result<SslRecord, TsvError> {
    decode_line(cols, raw, SSL_FIELDS.len())?;
    let p = LineParser {
        cols,
        line_no: raw.no,
    };
    let version = TlsVersion::from_zeek_name(p.col(6)).ok_or_else(|| p.bad(6, "version"))?;
    Ok(SslRecord {
        ts: p.parse(0, "ts")?,
        uid: unescape(p.col(1)).into_owned(),
        orig_h: p.ip(2, "id.orig_h")?,
        orig_p: p.parse(3, "id.orig_p")?,
        resp_h: p.ip(4, "id.resp_h")?,
        resp_p: p.parse(5, "id.resp_p")?,
        version,
        server_name: parse_opt(p.col(7)),
        established: p.boolean(8, "established")?,
        cert_chain_fps: p.fps(9, "cert_chain_fps")?,
        client_cert_chain_fps: p.fps(10, "client_cert_chain_fps")?,
    })
}

/// Parse one `ssl.log` line onto the end of `out`.
fn push_ssl_line<'a>(
    cols: &mut Vec<&'a str>,
    raw: &RawLine<'a>,
    out: &mut Vec<SslRecord>,
) -> Result<(), TsvError> {
    out.push(parse_ssl_line(cols, raw)?);
    Ok(())
}

/// Parse one `x509.log` line onto the end of `out`, in place: the row is
/// filled where it will stay instead of being built and then moved in.
fn push_x509_line<'a>(
    cols: &mut Vec<&'a str>,
    raw: &RawLine<'a>,
    out: &mut Vec<X509Record>,
) -> Result<(), TsvError> {
    out.push(X509Record::default());
    let parsed = parse_x509_into(cols, raw, out.last_mut().expect("pushed above"));
    if parsed.is_err() {
        out.pop();
    }
    parsed
}

/// The one `x509.log` line parser: overwrite every field of `rec` from one
/// data line, keeping the capacity of its strings and SAN lists. Fields
/// are read in column order, so the first bad one is the one reported; on
/// an error `rec` holds a partly overwritten row.
fn parse_x509_into<'a>(
    cols: &mut Vec<&'a str>,
    raw: &RawLine<'a>,
    rec: &mut X509Record,
) -> Result<(), TsvError> {
    decode_line(cols, raw, X509_FIELDS.len())?;
    let p = LineParser {
        cols,
        line_no: raw.no,
    };
    rec.ts = p.parse(0, "ts")?;
    rec.fingerprint = p.fp(1, "fingerprint")?;
    rec.version = p.parse(2, "certificate.version")?;
    set_str(&mut rec.serial, p.col(3));
    set_str(&mut rec.subject, p.col(4));
    set_str(&mut rec.issuer, p.col(5));
    set_opt(&mut rec.issuer_org, p.col(6));
    set_opt(&mut rec.subject_cn, p.col(7));
    rec.not_valid_before = p.parse(8, "certificate.not_valid_before")?;
    rec.not_valid_after = p.parse(9, "certificate.not_valid_after")?;
    set_name(&mut rec.key_alg, p.col(10), KEY_ALGS);
    rec.key_length = p.parse(11, "certificate.key_length")?;
    set_name(&mut rec.sig_alg, p.col(12), SIG_ALGS);
    set_vec(&mut rec.san_dns, p.col(13));
    set_vec(&mut rec.san_email, p.col(14));
    set_vec(&mut rec.san_uri, p.col(15));
    set_vec(&mut rec.san_ip, p.col(16));
    rec.basic_constraints_ca = p.boolean(17, "basic_constraints.ca")?;
    Ok(())
}

/// An `x509.log` buffer read one row at a time into a record the caller
/// owns and reuses — the served shard verdict's path, which renders each
/// row as soon as it is parsed. [`X509Rows::new`] checks the `#fields`
/// header over the whole buffer before any row is parsed, so a bad header
/// wins over a bad row exactly as in [`read_x509_log`], and the rows parse
/// through the same line parser, so each one equals that reader's record
/// or its first error.
pub struct X509Rows<'a> {
    lines: std::vec::IntoIter<RawLine<'a>>,
    cols: Vec<&'a str>,
}

impl<'a> X509Rows<'a> {
    /// Check the header and slice the data lines of `buf`.
    pub fn new(buf: &'a [u8]) -> Result<X509Rows<'a>, TsvError> {
        Ok(X509Rows {
            lines: raw_data_lines(buf, X509_FIELDS)?.into_iter(),
            cols: Vec::with_capacity(X509_FIELDS.len()),
        })
    }

    /// Data rows not yet parsed.
    pub fn len(&self) -> usize {
        self.lines.len()
    }

    /// Whether every data row has been parsed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Parse the next data row into `rec`, overwriting every field and
    /// keeping the capacity of its strings and SAN lists; `None` after the
    /// last row. A strict reader stops at the first `Err`.
    pub fn next_into(&mut self, rec: &mut X509Record) -> Option<Result<(), TsvError>> {
        let raw = self.lines.next()?;
        Some(parse_x509_into(&mut self.cols, &raw, rec))
    }
}

/// The mode-dispatching read loop shared by both log readers. Strict mode
/// returns the first per-line error; lenient mode skips the line and
/// records it in `diag`. Header and I/O errors propagate in both modes
/// (the caller quarantines the shard in lenient mode).
macro_rules! read_log_with {
    ($reader:expr, $mode:expr, $diag:expr, $fields:expr, $push:ident) => {{
        let buf = slurp($reader)?;
        $diag.bytes_read += buf.len() as u64;
        let lines = raw_data_lines(&buf, $fields)?;
        let mut records = Vec::with_capacity(lines.len());
        let mut cols: Vec<&str> = Vec::with_capacity($fields.len());
        for raw in lines {
            match $push(&mut cols, &raw, &mut records) {
                Ok(()) => $diag.rows_parsed += 1,
                Err(err) if $mode == IngestMode::Lenient => {
                    $diag.record_skip(&err, raw.offset, raw.no, raw.bytes);
                }
                Err(err) => return Err(err),
            }
        }
        Ok(records)
    }};
}

/// Read an `ssl.log` stream written by [`write_ssl_log`] (or real Zeek with
/// the same field subset), in the given mode, recording skip diagnostics
/// into `diag`.
pub fn read_ssl_log_with<R: BufRead>(
    reader: R,
    mode: IngestMode,
    diag: &mut ShardDiag,
) -> Result<Vec<SslRecord>, TsvError> {
    read_log_with!(reader, mode, diag, SSL_FIELDS, push_ssl_line)
}

/// Read an `x509.log` stream written by [`write_x509_log`], in the given
/// mode, recording skip diagnostics into `diag`.
pub fn read_x509_log_with<R: BufRead>(
    reader: R,
    mode: IngestMode,
    diag: &mut ShardDiag,
) -> Result<Vec<X509Record>, TsvError> {
    read_log_with!(reader, mode, diag, X509_FIELDS, push_x509_line)
}

/// Read an `ssl.log` stream strictly: the first malformed row aborts.
pub fn read_ssl_log<R: BufRead>(reader: R) -> Result<Vec<SslRecord>, TsvError> {
    read_ssl_log_with(reader, IngestMode::Strict, &mut ShardDiag::default())
}

/// Read an `x509.log` stream strictly: the first malformed row aborts.
pub fn read_x509_log<R: BufRead>(reader: R) -> Result<Vec<X509Record>, TsvError> {
    read_x509_log_with(reader, IngestMode::Strict, &mut ShardDiag::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn sample_ssl() -> SslRecord {
        SslRecord {
            ts: 1_651_363_200.25,
            uid: "CAbc123".into(),
            orig_h: Ipv4::new(10, 1, 2, 3),
            orig_p: 51234,
            resp_h: Ipv4::new(93, 184, 216, 34),
            resp_p: 443,
            version: TlsVersion::Tls12,
            server_name: Some("www.example.org".into()),
            established: true,
            cert_chain_fps: vec![Fp::of(b"server leaf"), Fp::of(b"server root")],
            client_cert_chain_fps: vec![Fp::of(b"client leaf")],
        }
    }

    fn sample_x509() -> X509Record {
        X509Record {
            ts: 1_651_363_200.0,
            fingerprint: Fp::of(b"server leaf"),
            version: 3,
            serial: "03E8".into(),
            subject: "CN=www.example.org".into(),
            issuer: "O=GuardiCore".into(),
            issuer_org: Some("GuardiCore".into()),
            subject_cn: Some("www.example.org".into()),
            not_valid_before: 1_600_000_000,
            not_valid_after: 1_700_000_000,
            key_alg: "rsa".into(),
            key_length: 2048,
            sig_alg: "sha256WithRSAEncryption".into(),
            san_dns: vec!["www.example.org".into(), "example.org".into()],
            san_email: vec![],
            san_uri: vec![],
            san_ip: vec!["10.0.0.1".into()],
            basic_constraints_ca: false,
        }
    }

    #[test]
    fn ssl_round_trip() {
        let records = vec![
            sample_ssl(),
            SslRecord {
                server_name: None,
                cert_chain_fps: vec![],
                client_cert_chain_fps: vec![],
                version: TlsVersion::Tls13,
                established: false,
                ..sample_ssl()
            },
        ];
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, &records).unwrap();
        let parsed = read_ssl_log(Cursor::new(buf)).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn x509_round_trip() {
        let records = vec![
            sample_x509(),
            X509Record {
                issuer_org: None,
                subject_cn: None,
                san_dns: vec![],
                san_ip: vec![],
                // Incorrect dates representable.
                not_valid_before: 1_700_000_000,
                not_valid_after: -3_000_000_000,
                basic_constraints_ca: true,
                ..sample_x509()
            },
        ];
        let mut buf = Vec::new();
        write_x509_log(&mut buf, &records).unwrap();
        let parsed = read_x509_log(Cursor::new(buf)).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn values_with_separators_escape() {
        let mut rec = sample_x509();
        rec.subject = "CN=bad\tname, O=with,comma".into();
        rec.san_dns = vec!["a,b".into(), "c\\d".into()];
        let mut buf = Vec::new();
        write_x509_log(&mut buf, &[rec.clone()]).unwrap();
        let parsed = read_x509_log(Cursor::new(buf)).unwrap();
        assert_eq!(parsed[0].subject, rec.subject);
        assert_eq!(parsed[0].san_dns, rec.san_dns);
    }

    #[test]
    fn header_mismatch_rejected() {
        let text = "#fields\tts\tnope\n1.0\tx\n";
        assert!(matches!(
            read_ssl_log(Cursor::new(text)),
            Err(TsvError::BadHeader)
        ));
    }

    #[test]
    fn missing_header_rejected() {
        let text = "1.0\tx\n";
        assert!(matches!(
            read_ssl_log(Cursor::new(text)),
            Err(TsvError::BadHeader)
        ));
    }

    #[test]
    fn column_count_enforced() {
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, &[sample_ssl()]).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("1.0\tonly_two\n");
        assert!(matches!(
            read_ssl_log(Cursor::new(text)),
            Err(TsvError::ColumnCount { .. })
        ));
    }

    #[test]
    fn comments_and_blank_lines_skipped() {
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, &[sample_ssl()]).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        text.push_str("\n# trailing comment\n");
        assert_eq!(read_ssl_log(Cursor::new(text)).unwrap().len(), 1);
    }

    #[test]
    fn marker_collisions_round_trip() {
        // SNI literally "-" or "(empty)", and vectors holding them.
        let mut rec = sample_ssl();
        rec.server_name = Some("-".into());
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, std::slice::from_ref(&rec)).unwrap();
        let parsed = read_ssl_log(Cursor::new(buf)).unwrap();
        assert_eq!(parsed, vec![rec]);

        let mut cert = sample_x509();
        cert.subject_cn = Some("(empty)".into());
        cert.san_dns = vec!["-".into()];
        cert.san_email = vec!["(empty)".into()];
        cert.san_uri = vec!["-".into(), "(empty)".into()];
        let mut buf = Vec::new();
        write_x509_log(&mut buf, std::slice::from_ref(&cert)).unwrap();
        let parsed = read_x509_log(Cursor::new(buf)).unwrap();
        assert_eq!(parsed, vec![cert]);
    }

    /// One data line of each fingerprint column with `bad` in it: a
    /// chain's second entry, or the certificate's own fingerprint. (A
    /// whole chain column of `-` is an unset vector, which reads as no
    /// certificates.)
    fn with_bad_fp(bad: &str) -> [(Vec<u8>, &'static str); 3] {
        let good = Fp::of(b"server leaf").to_string();
        let swap = |buf: Vec<u8>, chain: bool| {
            let text = String::from_utf8(buf).unwrap();
            let (head, rest) = text.split_once(&good).unwrap();
            let fp = if chain {
                format!("{good},{bad}")
            } else {
                bad.to_string()
            };
            format!("{head}{fp}{rest}").into_bytes()
        };
        let mut ssl = Vec::new();
        write_ssl_log(&mut ssl, &[sample_ssl()]).unwrap();
        let mut client_only = sample_ssl();
        client_only.cert_chain_fps.clear();
        client_only.client_cert_chain_fps = vec![Fp::of(b"server leaf")];
        let mut client = Vec::new();
        write_ssl_log(&mut client, &[client_only]).unwrap();
        let mut x509 = Vec::new();
        write_x509_log(&mut x509, &[sample_x509()]).unwrap();
        [
            (swap(ssl, true), "cert_chain_fps"),
            (swap(client, true), "client_cert_chain_fps"),
            (swap(x509, false), "fingerprint"),
        ]
    }

    /// The four malformed fingerprints: a non-hex digit, 63 digits,
    /// uppercase, and unset.
    fn bad_fps() -> [String; 4] {
        let good = Fp::of(b"server leaf").to_string();
        [
            format!("g{}", &good[1..]),
            good[1..].to_string(),
            good.to_ascii_uppercase(),
            "-".to_string(),
        ]
    }

    #[test]
    fn malformed_fingerprints_are_field_errors() {
        use crate::diag::ErrorKind;
        for bad in bad_fps() {
            for (buf, column) in with_bad_fp(&bad) {
                let strict = if column == "fingerprint" {
                    read_x509_log(Cursor::new(&buf)).map(|_| ())
                } else {
                    read_ssl_log(Cursor::new(&buf)).map(|_| ())
                };
                match strict {
                    Err(TsvError::BadField { field, .. }) => assert_eq!(field, column, "{bad}"),
                    other => panic!("{bad:?} in {column}: {other:?}"),
                }
                let mut diag = ShardDiag::new("shard");
                let rows = if column == "fingerprint" {
                    read_x509_log_with(Cursor::new(&buf), IngestMode::Lenient, &mut diag)
                        .unwrap()
                        .len()
                } else {
                    read_ssl_log_with(Cursor::new(&buf), IngestMode::Lenient, &mut diag)
                        .unwrap()
                        .len()
                };
                assert_eq!(rows, 0, "{bad:?} in {column}");
                assert_eq!(
                    diag.skipped_of(ErrorKind::BadField),
                    1,
                    "{bad:?} in {column}"
                );
            }
        }
    }

    #[test]
    fn unset_and_empty_chains_read_as_no_certificates() {
        let mut buf = Vec::new();
        let mut rec = sample_ssl();
        rec.cert_chain_fps.clear();
        write_ssl_log(&mut buf, std::slice::from_ref(&rec)).unwrap();
        let text = String::from_utf8(buf)
            .unwrap()
            .replace("\t(empty)\t", "\t-\t");
        let parsed = read_ssl_log(Cursor::new(text)).unwrap();
        assert_eq!(parsed, vec![rec]);
    }

    #[test]
    fn unknown_algorithm_names_are_owned() {
        let mut rec = sample_x509();
        rec.key_alg = "ed25519".into();
        rec.sig_alg = "sha384, with a comma".into();
        let mut buf = Vec::new();
        write_x509_log(&mut buf, std::slice::from_ref(&rec)).unwrap();
        let parsed = read_x509_log(Cursor::new(&buf)).unwrap();
        assert_eq!(parsed, vec![rec]);
        assert!(matches!(parsed[0].key_alg, Cow::Owned(_)));
        let parsed = read_x509_log(Cursor::new(sample_x509_log())).unwrap();
        assert!(matches!(parsed[0].key_alg, Cow::Borrowed("rsa")));
        assert!(matches!(
            parsed[0].sig_alg,
            Cow::Borrowed("sha256WithRSAEncryption")
        ));
    }

    fn sample_x509_log() -> Vec<u8> {
        let mut buf = Vec::new();
        write_x509_log(&mut buf, &[sample_x509()]).unwrap();
        buf
    }

    #[test]
    fn lenient_skips_and_counts_malformed_rows() {
        use crate::diag::ErrorKind;
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, &[sample_ssl(), sample_ssl()]).unwrap();
        let mut text = String::from_utf8(buf).unwrap();
        // One short row, one bad field, and the good rows around them.
        text.push_str("1.0\tonly_two\n");
        text.push_str("notatime\tCx\t1.2.3.4\t1\t5.6.7.8\t443\tTLSv12\t-\tT\t(empty)\t(empty)\n");
        let mut bytes = text.into_bytes();
        // And one row with raw non-UTF-8 in the SNI column.
        bytes.extend_from_slice(
            b"2.0\tCy\t1.2.3.4\t1\t5.6.7.8\t443\tTLSv12\t\xFF\xFE\tT\t(empty)\t(empty)\n",
        );

        // Strict still aborts on the first bad row.
        assert!(matches!(
            read_ssl_log(Cursor::new(bytes.clone())),
            Err(TsvError::ColumnCount { .. })
        ));

        let mut diag = ShardDiag::new("ssl.log");
        let records =
            read_ssl_log_with(Cursor::new(bytes.clone()), IngestMode::Lenient, &mut diag).unwrap();
        assert_eq!(records.len(), 2, "only the two clean originals survive");
        assert_eq!(diag.rows_parsed, 2);
        assert_eq!(diag.rows_skipped(), 3);
        assert_eq!(diag.skipped_of(ErrorKind::ColumnCount), 1);
        assert_eq!(diag.skipped_of(ErrorKind::BadField), 1);
        assert_eq!(diag.skipped_of(ErrorKind::NonUtf8), 1);
        assert_eq!(diag.bytes_read, bytes.len() as u64);
        // Samples carry line numbers and byte offsets pointing at the line.
        assert_eq!(diag.samples.len(), 3);
        let s = &diag.samples[0];
        assert_eq!(
            &bytes[s.byte_offset as usize..s.byte_offset as usize + 3],
            b"1.0"
        );
        assert!(s.snippet.starts_with("1.0\tonly_two"));
    }

    #[test]
    fn lenient_skips_whole_non_utf8_lines() {
        use crate::diag::ErrorKind;
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, &[sample_ssl()]).unwrap();
        // Mangle the data row's timestamp bytes so the line cannot decode.
        let pos = buf
            .windows(4)
            .position(|w| w == b"1651")
            .expect("ts in data row");
        buf[pos] = 0xFF;
        buf[pos + 1] = 0xC0;
        let mut diag = ShardDiag::new("ssl.log");
        let records = read_ssl_log_with(Cursor::new(buf), IngestMode::Lenient, &mut diag).unwrap();
        assert!(records.is_empty());
        assert_eq!(diag.skipped_of(ErrorKind::NonUtf8), 1);
    }

    #[test]
    fn bad_header_fails_both_modes() {
        let text = "#fields\tts\tnope\n1.0\tx\n";
        let mut diag = ShardDiag::new("ssl.log");
        assert!(matches!(
            read_ssl_log_with(Cursor::new(text), IngestMode::Lenient, &mut diag),
            Err(TsvError::BadHeader)
        ));
        // Strict header precedence is unchanged: a bad header anywhere in
        // the shard wins over earlier bad rows.
        let text = "#fields\tts\tnope\njunk\trow\n";
        assert!(matches!(
            read_ssl_log(Cursor::new(text)),
            Err(TsvError::BadHeader)
        ));
    }

    #[test]
    fn lenient_equals_strict_on_clean_input() {
        let records = vec![sample_ssl(), sample_ssl()];
        let mut buf = Vec::new();
        write_ssl_log(&mut buf, &records).unwrap();
        let strict = read_ssl_log(Cursor::new(buf.clone())).unwrap();
        let mut diag = ShardDiag::new("ssl.log");
        let lenient = read_ssl_log_with(Cursor::new(buf), IngestMode::Lenient, &mut diag).unwrap();
        assert_eq!(strict, lenient);
        assert_eq!(diag.rows_skipped(), 0);
        assert_eq!(diag.rows_parsed, 2);
    }

    #[test]
    fn escape_unescape_inverse() {
        for s in [
            "plain",
            "tab\there",
            "a,b",
            "back\\slash",
            "nl\nend",
            "\\x41 literal",
        ] {
            assert_eq!(unescape(&escape(s)), s, "{s:?}");
        }
    }
}
