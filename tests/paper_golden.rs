//! The paper's results, pinned bit for bit.
//!
//! `tests/golden/paper_seed42.txt` is the stdout of `appclass table3`,
//! `fig4`, `fig5` and `table4` at `--seed 42`, followed by the placement
//! experiment `appclass sched-cluster --hosts 16 --seed 42`. It is
//! produced by this shell line, run from the repository root, and by
//! nothing else:
//!
//! ```sh
//! cargo build --release && B=target/release/appclass && {
//!     for a in table3 fig4 fig5 table4; do $B $a --seed 42; done
//!     $B sched-cluster --hosts 16 --seed 42; } > tests/golden/paper_seed42.txt
//! ```
//!
//! A change that moves a number or a verdict in it reruns that line in
//! the same change and says why. EXPERIMENTS.md quotes measured numbers
//! of these artefacts only in blocks fenced as `golden`, and each such
//! block must be a run of whole lines of the file.

use std::process::Command;

const GOLDEN: &str = include_str!("golden/paper_seed42.txt");

/// The commands whose stdout the golden file concatenates, in order.
const RUNS: [&[&str]; 5] = [
    &["table3", "--seed", "42"],
    &["fig4", "--seed", "42"],
    &["fig5", "--seed", "42"],
    &["table4", "--seed", "42"],
    &["sched-cluster", "--hosts", "16", "--seed", "42"],
];

/// The first line (1-based) where `want` and `got` differ, with both
/// sides; `None` if they are equal line for line.
fn first_difference<'a>(
    want: &'a str,
    got: &'a str,
) -> Option<(usize, Option<&'a str>, Option<&'a str>)> {
    let (want, got): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    (0..want.len().max(got.len()))
        .map(|i| (i + 1, want.get(i).copied(), got.get(i).copied()))
        .find(|(_, w, g)| w != g)
}

#[test]
fn paper_results_match_the_golden_file() {
    let mut got = String::new();
    for args in RUNS {
        let out =
            Command::new(env!("CARGO_BIN_EXE_appclass")).args(args).output().expect("run appclass");
        assert!(
            out.status.success(),
            "appclass {} failed: {}",
            args.join(" "),
            String::from_utf8_lossy(&out.stderr)
        );
        got.push_str(&String::from_utf8(out.stdout).expect("appclass prints UTF-8"));
    }
    if let Some((line, want, got)) = first_difference(GOLDEN, &got) {
        panic!(
            "paper results differ from tests/golden/paper_seed42.txt at line {line}:\n  \
             golden: {}\n  binary: {}",
            want.unwrap_or("<end of file>"),
            got.unwrap_or("<end of output>")
        );
    }
    assert_eq!(GOLDEN, got, "the outputs differ only in line endings");
}

#[test]
fn experiments_md_quotes_measured_numbers_from_the_golden_file() {
    let doc = include_str!("../EXPERIMENTS.md");
    let golden: Vec<&str> = GOLDEN.lines().collect();
    let mut blocks: Vec<Vec<&str>> = Vec::new();
    let mut open: Option<Vec<&str>> = None;
    for line in doc.lines() {
        match (&mut open, line.trim_end()) {
            (None, "```golden") => open = Some(Vec::new()),
            (Some(_), "```") => blocks.extend(open.take()),
            (Some(block), _) => block.push(line),
            (None, _) => {}
        }
    }
    assert!(open.is_none(), "EXPERIMENTS.md leaves a golden block unclosed");
    assert!(blocks.len() >= 4, "EXPERIMENTS.md quotes Table 3, Figures 4 and 5 and Table 4");
    for block in blocks {
        assert!(
            !block.is_empty() && golden.windows(block.len()).any(|w| w == block.as_slice()),
            "this EXPERIMENTS.md golden block is not a run of lines of \
             tests/golden/paper_seed42.txt:\n{}",
            block.join("\n")
        );
    }
}
