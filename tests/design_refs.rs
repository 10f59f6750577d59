//! Every arabic section reference (`§` followed by digits) in the Rust
//! sources under `crates/` and `tests/`, and in README, EXPERIMENTS and
//! DESIGN, names a `## N.` heading that exists in DESIGN.md. Roman
//! section numbers (`§II`, `§III-A`) cite the paper and are not checked.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

/// The numbered `## N.` headings of a DESIGN.md text.
fn design_sections(design: &str) -> BTreeSet<u32> {
    design
        .lines()
        .filter_map(|l| l.strip_prefix("## "))
        .filter_map(|rest| rest.split_once('.'))
        .filter_map(|(n, _)| n.parse().ok())
        .collect()
}

/// Every arabic `§` reference in `text` as `(line, number)`, 1-based.
/// A reference may break after the `§`: the number then opens the next
/// line, after its indentation and comment marker.
fn section_refs(text: &str) -> Vec<(usize, u32)> {
    let mut refs = Vec::new();
    let mut line = 1;
    let mut chars = text.chars().peekable();
    while let Some(c) = chars.next() {
        if c == '\n' {
            line += 1;
            continue;
        }
        if c != '§' {
            continue;
        }
        let at = line;
        let mut crossed = false;
        while let Some(&c) = chars.peek() {
            match c {
                '\n' if !crossed => {
                    crossed = true;
                    line += 1;
                }
                ' ' | '\t' => {}
                '/' | '!' if crossed => {}
                _ => break,
            }
            chars.next();
        }
        let mut digits = String::new();
        while let Some(&d) = chars.peek().filter(|d| d.is_ascii_digit()) {
            digits.push(d);
            chars.next();
        }
        if let Ok(n) = digits.parse() {
            refs.push((at, n));
        }
    }
    refs
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap_or_else(|e| panic!("{}: {e}", dir.display())) {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

#[test]
fn every_arabic_section_reference_names_a_design_heading() {
    // The scanner itself: a reference broken after the `§`, and the
    // paper's roman section numbers skipped.
    let text = "see §II and §III-A\n//! DESIGN.md §\n//! 7 then §12, §\n  40";
    assert_eq!(section_refs(text), [(2, 7), (3, 12), (3, 40)]);

    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let design = fs::read_to_string(root.join("DESIGN.md")).unwrap();
    let sections = design_sections(&design);
    assert!(sections.len() >= 19, "DESIGN.md headings: {sections:?}");

    let mut files = Vec::new();
    rust_files(&root.join("crates"), &mut files);
    rust_files(&root.join("tests"), &mut files);
    files.sort();
    files.extend(["README.md", "EXPERIMENTS.md", "DESIGN.md"].map(|f| root.join(f)));

    let (mut checked, mut dangling) = (0, Vec::new());
    for path in &files {
        let text = fs::read_to_string(path).unwrap();
        for (line, n) in section_refs(&text) {
            checked += 1;
            if !sections.contains(&n) {
                let rel = path.strip_prefix(root).unwrap_or(path);
                dangling.push(format!("{}:{line}: §{n}", rel.display()));
            }
        }
    }
    assert!(checked > 50, "only {checked} references found");
    assert!(
        dangling.is_empty(),
        "references to no DESIGN.md heading:\n{}",
        dangling.join("\n")
    );
}
