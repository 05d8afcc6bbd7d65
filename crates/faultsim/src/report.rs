//! Text and JSON rendering of campaign results for the `faultsim` CLI.
//!
//! JSON is emitted by hand (the workspace is offline — no serde);
//! strings go through `sta`'s escaper, as in `netcheck` and `runtime`.

use sensor::sta::report::json_escape;

use crate::campaign::{CampaignResult, Outcome};

fn outcome_name(o: &Outcome) -> &'static str {
    match o {
        Outcome::Detected { .. } => "detected",
        Outcome::SilentCorruption { .. } => "silent-corruption",
        Outcome::Benign { .. } => "benign",
        Outcome::Hang { .. } => "hang",
    }
}

fn outcome_detail(o: &Outcome) -> String {
    match o {
        Outcome::Detected { how } => how.clone(),
        Outcome::SilentCorruption { error_c } | Outcome::Benign { error_c } => {
            format!("{error_c:+.2} °C")
        }
        Outcome::Hang { detail } => detail.clone(),
    }
}

/// Renders the campaign as a human-readable report.
pub fn render_text(result: &CampaignResult, verbose: bool) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "fault campaign: seed {}  {} fault(s)  {:.2} s  {:.1} faults/s\n",
        result.config.seed,
        result.runs.len(),
        result.elapsed_s,
        result.throughput(),
    ));
    out.push_str(&format!(
        "outcomes: {} detected  {} benign  {} silent  {} hang  ({} panic(s))\n",
        result.detected(),
        result.benign(),
        result.silent(),
        result.hung(),
        result.panics,
    ));
    out.push_str("per class:\n");
    out.push_str(&format!(
        "  {:<18} {:>5} {:>9} {:>7} {:>7} {:>5}  coverage\n",
        "class", "total", "detected", "benign", "silent", "hang"
    ));
    for (class, n, det, ben, sil, hung) in result.per_class() {
        out.push_str(&format!(
            "  {:<18} {:>5} {:>9} {:>7} {:>7} {:>5}  {:>6.1} %\n",
            class.to_string(),
            n,
            det,
            ben,
            sil,
            hung,
            100.0 * (det + ben) as f64 / n as f64,
        ));
    }
    out.push_str(&format!(
        "fault coverage: {:.1} %\n",
        result.coverage() * 100.0
    ));
    if verbose {
        out.push_str("runs:\n");
        for run in &result.runs {
            out.push_str(&format!(
                "  {:<18} {:<42} {}\n",
                outcome_name(&run.outcome),
                run.fault.to_string(),
                outcome_detail(&run.outcome),
            ));
        }
    } else {
        // Always surface the runs that demand attention.
        for run in &result.runs {
            if matches!(
                run.outcome,
                Outcome::SilentCorruption { .. } | Outcome::Hang { .. }
            ) {
                out.push_str(&format!(
                    "  !! {:<18} {:<42} {}\n",
                    outcome_name(&run.outcome),
                    run.fault.to_string(),
                    outcome_detail(&run.outcome),
                ));
            }
        }
    }
    out
}

/// Renders the campaign as a JSON object (no trailing newline).
pub fn render_json(result: &CampaignResult) -> String {
    let classes: Vec<String> = result
        .per_class()
        .iter()
        .map(|(class, n, det, ben, sil, hung)| {
            format!(
                "{{\"class\":\"{}\",\"total\":{},\"detected\":{},\"benign\":{},\
                 \"silent\":{},\"hang\":{},\"coverage\":{:.4}}}",
                class,
                n,
                det,
                ben,
                sil,
                hung,
                (det + ben) as f64 / *n as f64,
            )
        })
        .collect();
    let runs: Vec<String> = result
        .runs
        .iter()
        .map(|run| {
            format!(
                "{{\"fault\":\"{}\",\"class\":\"{}\",\"outcome\":\"{}\",\"detail\":\"{}\"}}",
                json_escape(&run.fault.to_string()),
                run.fault.class(),
                outcome_name(&run.outcome),
                json_escape(&outcome_detail(&run.outcome)),
            )
        })
        .collect();
    format!(
        "{{\"seed\":{},\"faults\":{},\"elapsed_s\":{:.4},\"throughput_per_s\":{:.2},\
         \"detected\":{},\"benign\":{},\"silent\":{},\"hang\":{},\"panics\":{},\
         \"coverage\":{:.4},\"classes\":[{}],\"runs\":[{}]}}",
        result.config.seed,
        result.runs.len(),
        result.elapsed_s,
        result.throughput(),
        result.detected(),
        result.benign(),
        result.silent(),
        result.hung(),
        result.panics,
        result.coverage(),
        classes.join(","),
        runs.join(","),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{CampaignConfig, FaultRun};
    use crate::fault::Fault;

    fn tiny_result() -> CampaignResult {
        CampaignResult {
            runs: vec![
                FaultRun {
                    fault: Fault::DeadRing,
                    outcome: Outcome::Detected {
                        how: "quarantine".to_string(),
                    },
                },
                FaultRun {
                    fault: Fault::CounterBitFlip { bit: 1 },
                    outcome: Outcome::Benign { error_c: 0.26 },
                },
            ],
            panics: 0,
            elapsed_s: 0.5,
            config: CampaignConfig::default(),
        }
    }

    #[test]
    fn text_report_carries_totals_and_classes() {
        let r = tiny_result();
        let text = render_text(&r, false);
        assert!(text.contains("2 fault(s)"));
        assert!(text.contains("1 detected  1 benign  0 silent  0 hang"));
        assert!(text.contains("dead-ring"));
        assert!(text.contains("counter-bit-flip"));
        assert!(text.contains("fault coverage: 100.0 %"));
        // Verbose mode lists every run.
        let verbose = render_text(&r, true);
        assert!(verbose.contains("dead ring"));
        assert!(verbose.contains("+0.26 °C"));
    }

    #[test]
    fn json_report_is_well_formed_and_escaped() {
        let mut r = tiny_result();
        r.runs[0].outcome = Outcome::Detected {
            how: "quoted \"cause\"\nwith newline".to_string(),
        };
        let json = render_json(&r);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\\\"cause\\\""));
        assert!(json.contains("\\n"));
        assert!(json.contains("\"coverage\":1.0000"));
        assert!(!json.contains('\n'), "single-line JSON");
    }
}
