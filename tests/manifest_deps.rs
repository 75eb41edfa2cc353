//! Every dependency a workspace member's manifest names is used by that
//! member's own Rust sources. A dead edge still builds, so nothing else
//! notices it: it only adds a crate to every build of the member and a
//! false line to what the manifest says the member needs.

use std::path::{Path, PathBuf};

/// The root package and every package under `crates/` and `vendor/`.
fn members(root: &Path) -> Vec<PathBuf> {
    let mut out = vec![root.to_path_buf()];
    for group in ["crates", "vendor"] {
        let mut dirs: Vec<PathBuf> = std::fs::read_dir(root.join(group))
            .unwrap_or_else(|e| panic!("read {group}/: {e}"))
            .map(|entry| entry.expect("directory entry").path())
            .filter(|dir| dir.join("Cargo.toml").is_file())
            .collect();
        dirs.sort();
        out.extend(dirs);
    }
    out
}

/// The names under `[dependencies]` and `[dev-dependencies]`, in the
/// forms `name = ...` and `name.workspace = true`.
fn dependency_names(manifest: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut in_deps = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_deps = line == "[dependencies]" || line == "[dev-dependencies]";
        } else if in_deps && !line.is_empty() && !line.starts_with('#') {
            let end = line
                .find(|c: char| c == '=' || c == '.' || c.is_whitespace())
                .unwrap_or(line.len());
            names.push(line[..end].to_string());
        }
    }
    names
}

/// Every `.rs` file under `dir`, recursively, with `//` comments removed.
/// This file is skipped: its own examples name crates.
fn sources(dir: &Path, out: &mut String) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries {
        let path = entry.expect("directory entry").path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") && !path.ends_with(file!()) {
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
            for line in text.lines() {
                out.push_str(line.split("//").next().unwrap_or(""));
                out.push('\n');
            }
        }
    }
}

/// Whether `ident`, outside a longer identifier, is used as a path root
/// (`ident::`) or named by `use ident` or `extern crate ident`.
fn uses_crate(code: &str, ident: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices(ident).any(|(at, _)| {
        let before = &code[..at];
        let after = &code[at + ident.len()..];
        !before.ends_with(is_ident)
            && !after.starts_with(is_ident)
            && (after.starts_with("::")
                || before.ends_with("use ")
                || before.ends_with("extern crate "))
    })
}

#[test]
fn every_manifest_dependency_is_used_by_its_member() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut dead = Vec::new();
    for member in members(root) {
        let manifest = std::fs::read_to_string(member.join("Cargo.toml"))
            .unwrap_or_else(|e| panic!("read {}/Cargo.toml: {e}", member.display()));
        let mut code = String::new();
        for dir in ["src", "tests", "examples", "benches"] {
            sources(&member.join(dir), &mut code);
        }
        for name in dependency_names(&manifest) {
            if !uses_crate(&code, &name.replace('-', "_")) {
                let at = member.strip_prefix(root).unwrap_or(&member);
                dead.push(format!("{}: {name}", Path::new(".").join(at).display()));
            }
        }
    }
    assert!(
        dead.is_empty(),
        "manifest dependencies no source of the member uses: {dead:?}"
    );
}

#[test]
fn the_guard_reads_names_and_uses() {
    let manifest = "[package]\nname = \"x\"\n\n[dependencies]\n# note\nmtls-asn1.workspace = true\n\
                    rand = { path = \"vendor/rand\" }\n\n[dev-dependencies]\nproptest.workspace = true\n\n\
                    [lib]\npath = \"src/lib.rs\"\n";
    assert_eq!(
        dependency_names(manifest),
        ["mtls-asn1", "rand", "proptest"]
    );
    assert!(uses_crate("use mtls_asn1::Tag;", "mtls_asn1"));
    assert!(uses_crate("pub use mtls_core as core;", "mtls_core"));
    assert!(uses_crate("extern crate proptest;", "proptest"));
    assert!(!uses_crate("use mtls_core_extra::X;", "mtls_core"));
    assert!(!uses_crate("let random = operand::x();", "rand"));
    assert!(!uses_crate("let rand = 3;", "rand"));
}
