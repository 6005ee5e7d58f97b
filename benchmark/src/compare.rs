//! `--compare A B`: do two result files of the same commit agree?
//!
//! Reads two `results.jsonl` files (one line per workload and trace mode, as
//! the full command writes them) and the bounds of `BENCHMARK.json`. Prints,
//! per workload, both values of every end-to-end metric, their ratio and the
//! bound. Fails when an end-to-end pair differs by more than its own bound,
//! when an exact metric differs at all, or when either file holds a failed
//! operation or an incorrect run.

use std::path::Path;

use crate::adapter::Json;
use crate::metrics::{is_exact, END_TO_END, PER_LAYER, WORKLOADS};

fn load(path: &Path) -> Result<Vec<Json>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).map_err(|e| format!("{}: {e}", path.display())))
        .collect()
}

/// The line of `workload` in the given trace mode.
fn line<'a>(lines: &'a [Json], workload: &str, trace: bool) -> Option<&'a Json> {
    lines.iter().find(|l| {
        l.text(&["workload"]) == Some(workload)
            && l.num(&["trace"]) == Some(f64::from(u8::from(trace)))
    })
}

/// Compares the two files; returns whether they agree.
pub fn run(a: &Path, b: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    let text = std::fs::read_to_string(benchmark_json)
        .map_err(|e| format!("cannot read {}: {e}", benchmark_json.display()))?;
    let contract = Json::parse(&text)?;
    let bounds = contract.numbers_in_array(&["end_to_end"], "bound");
    if bounds.len() != END_TO_END.len() {
        return Err(format!(
            "{} does not give every end-to-end metric a bound",
            benchmark_json.display()
        ));
    }

    let mut agree = true;
    for workload in WORKLOADS {
        println!("== {workload} ==");
        for trace in [false, true] {
            let (Some(la), Some(lb)) = (line(&a, workload, trace), line(&b, workload, trace))
            else {
                println!(
                    "  missing from one of the files (trace {})",
                    u8::from(trace)
                );
                agree = false;
                continue;
            };
            for (side, l) in [("first", la), ("second", lb)] {
                if l.num(&["result", "failed"]) != Some(0.0) || !l.is_true(&["result", "correct"]) {
                    println!(
                        "  {side} run (trace {}) failed operations or was incorrect",
                        u8::from(trace)
                    );
                    agree = false;
                }
            }
            let value = |l: &Json, name: &str| l.num(&["result", "metrics", name, "value"]);
            if !trace {
                println!(
                    "  {:<22} {:>14} {:>14} {:>8} {:>6}",
                    "end-to-end", "first", "second", "ratio", "bound"
                );
                for ((name, _), bound) in END_TO_END.iter().zip(&bounds) {
                    let (Some(x), Some(y)) = (value(la, name), value(lb, name)) else {
                        println!("  {name:<22} missing");
                        agree = false;
                        continue;
                    };
                    let ratio = y / x;
                    let ok = (ratio - 1.0).abs() <= *bound;
                    agree &= ok;
                    println!(
                        "  {name:<22} {x:>14.4} {y:>14.4} {ratio:>8.3} {bound:>6.2}{}",
                        if ok { "" } else { "  DISAGREE" }
                    );
                }
            } else {
                for (name, _) in PER_LAYER.iter().filter(|(n, _)| is_exact(n)) {
                    let (x, y) = (value(la, name), value(lb, name));
                    if x != y {
                        println!("  exact metric {name} differs: {x:?} vs {y:?}");
                        agree = false;
                    }
                }
            }
        }
    }
    println!(
        "{}",
        if agree {
            "the two sets agree"
        } else {
            "the two sets DISAGREE"
        }
    );
    Ok(agree)
}
