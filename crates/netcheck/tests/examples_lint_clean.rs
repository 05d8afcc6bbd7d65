//! Every netlist, deck, library, and configuration the repository
//! ships as an example must lint clean: no rule may fire at error
//! severity. Every `ring_oscillator` ring and every shipped certify bundle's
//! gate-level surface must also pass the NC11xx–NC14xx dataflow lints
//! without a single finding.

use std::path::{Path, PathBuf};

use dsim::builders::{ring_oscillator, MIN_TOGGLE_PERIOD_FS};
use dsim::netlist::{GateOp, Netlist};
use netcheck::{
    check_deck, check_library, check_netlist_dataflow, check_sensor_config, CertifyBundle, Report,
};
use sensor::digitizer::GateLevelDigitizer;
use sensor::gateunit::GateLevelUnit;
use sensor::muxscan::GateLevelMuxScan;
use sensor::unit::SensorConfig;
use stdcell::library::CellLibrary;
use tsense_core::gate::{Gate, GateKind};
use tsense_core::ring::{CellConfig, RingOscillator};
use tsense_core::tech::Technology;
use tsense_core::units::{Celsius, Hertz, Seconds};

#[test]
fn builder_rings_lint_clean() {
    for ops in [
        vec![GateOp::Inv; 5],
        vec![GateOp::Inv; 9],
        vec![GateOp::Inv; 21],
        vec![
            GateOp::Inv,
            GateOp::Inv,
            GateOp::Inv,
            GateOp::Nand,
            GateOp::Nor,
        ],
    ] {
        let mut nl = Netlist::new();
        ring_oscillator(&mut nl, &ops, "ring", 12_000).unwrap();
        let report = check_netlist_dataflow(&nl);
        assert!(report.is_clean(), "{ops:?}:\n{}", report.render_text());
    }
}

/// The shipped certify bundles, sorted by path.
fn certify_bundles() -> Vec<PathBuf> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples/certify");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("examples/certify exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "toml"))
        .collect();
    paths.sort();
    paths
}

/// The period the CLI lints a bundle's netlists at: the nominal 25 °C
/// ring period, clamped to the divider's toggle-loop floor.
fn lint_period(bundle: &CertifyBundle) -> Seconds {
    let cfg = &bundle.config;
    let period = cfg
        .ring
        .period(&cfg.tech, Celsius::new(25.0))
        .expect("shipped ring evaluates at 25 C");
    let floor_ps = MIN_TOGGLE_PERIOD_FS as f64 * 1e-3;
    Seconds::from_picos(period.as_picos().max(floor_ps))
}

#[test]
fn shipped_bundles_gate_level_surfaces_pass_the_dataflow_lints() {
    let paths = certify_bundles();
    assert!(!paths.is_empty(), "no certify bundles found");
    for path in paths {
        let text = std::fs::read_to_string(&path).unwrap();
        let name = path.file_stem().unwrap().to_string_lossy().into_owned();
        let bundle = CertifyBundle::parse(&text, &name).unwrap();
        let cfg = &bundle.config;
        let p = lint_period(&bundle);
        let unit =
            GateLevelUnit::new(p, cfg.ref_clock, cfg.settle_cycles, cfg.window_cycles).unwrap();
        let digitizer = GateLevelDigitizer::new(p, cfg.ref_clock, cfg.window_cycles).unwrap();
        let periods: Vec<Seconds> = (0..4)
            .map(|i| Seconds::from_picos(p.as_picos() * (1.0 + 0.1 * f64::from(i))))
            .collect();
        let scan = GateLevelMuxScan::new(&periods, cfg.ref_clock, cfg.window_cycles).unwrap();
        let surfaces: [(&str, Report); 3] = [
            ("unit", check_netlist_dataflow(unit.netlist())),
            ("digitizer", check_netlist_dataflow(&digitizer.netlist())),
            ("mux scan", check_netlist_dataflow(scan.netlist())),
        ];
        for (what, report) in surfaces {
            assert!(
                report.is_clean(),
                "{name} {what}:\n{}",
                report.render_text()
            );
        }
    }
}

#[test]
fn default_gate_level_topologies_have_no_dataflow_errors() {
    let ring = Seconds::from_nanos(1.5);
    let ref_clock = Hertz::from_mega(1000.0);
    let digitizer = GateLevelDigitizer::new(ring, ref_clock, 64).unwrap();
    let unit = GateLevelUnit::new(ring, ref_clock, 16, 64).unwrap();
    let periods = [1.2, 1.4, 1.6, 1.8].map(Seconds::from_nanos);
    let scan = GateLevelMuxScan::new(&periods, ref_clock, 64).unwrap();
    let topologies: [(&str, Report); 3] = [
        ("digitizer", check_netlist_dataflow(&digitizer.netlist())),
        ("unit", check_netlist_dataflow(unit.netlist())),
        ("mux scan", check_netlist_dataflow(scan.netlist())),
    ];
    for (what, report) in topologies {
        assert!(!report.has_errors(), "{what}:\n{}", report.render_text());
    }
}

#[test]
fn example_spice_deck_lints_clean() {
    // The deck built by `examples/spice_netlist.rs`: exported cell
    // library text plus a 5-stage inverter ring instance.
    let lib = CellLibrary::um350(2.0);
    let deck_text = format!(
        "{header}VDD vdd 0 DC 3.3
X1 n0 n1 vdd inv
X2 n1 n2 vdd inv
X3 n2 n3 vdd inv
X4 n3 n4 vdd inv
X5 n4 n0 vdd inv
.ic V(n0)=0 V(n1)=3.3 V(n2)=0 V(n3)=3.3 V(n4)=0
.temp 27
.tran 2p 1500p UIC
.end
",
        header = lib.library_text()
    );
    let deck = spicelite::netlist::parse(&deck_text).unwrap();
    let report = check_deck(&deck);
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn characterized_library_lints_clean() {
    let lib = CellLibrary::um350(2.0);
    let mut timing = stdcell::liberty::TimingLibrary::new("um350_lint");
    timing.insert(
        lib.characterize_cell(GateKind::Inv, &[-50.0, 27.0, 150.0])
            .unwrap(),
    );
    let report = check_library(&timing);
    assert!(report.is_clean(), "{}", report.render_text());
}

#[test]
fn paper_sensor_configs_lint_clean() {
    let tech = Technology::um350();
    for mix in CellConfig::paper_fig3_set() {
        let ring = RingOscillator::from_config(&mix, 1.0e-6, 2.0).unwrap();
        let report = check_sensor_config(&SensorConfig::new(ring, tech.clone()));
        assert!(report.is_clean(), "{mix}:\n{}", report.render_text());
    }
    for n in [9usize, 21] {
        let gate = Gate::with_ratio(GateKind::Inv, 1.0e-6, 2.0).unwrap();
        let ring = RingOscillator::uniform(gate, n).unwrap();
        let report = check_sensor_config(&SensorConfig::new(ring, tech.clone()));
        assert!(report.is_clean(), "{n} stages:\n{}", report.render_text());
    }
}

mod cli {
    use std::path::PathBuf;
    use std::process::{Command, Output};

    fn write_temp(name: &str, contents: &str) -> PathBuf {
        let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
        std::fs::write(&path, contents).unwrap();
        path
    }

    #[test]
    fn clean_deck_exits_zero() {
        let path = write_temp(
            "clean_divider.sp",
            "divider\nV1 in 0 DC 3.3\nR1 in out 1k\nR2 out 0 2.2k\n",
        );
        let output = Command::new(env!("CARGO_BIN_EXE_netcheck"))
            .arg(&path)
            .output()
            .unwrap();
        assert!(output.status.success(), "{output:?}");
    }

    #[test]
    fn defective_deck_exits_one_and_reports_json() {
        let path = write_temp("floating_island.sp", "island\nV1 a b DC 1\nR1 a b 1k\n");
        let output = Command::new(env!("CARGO_BIN_EXE_netcheck"))
            .args(["--json"])
            .arg(&path)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(1), "{output:?}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        assert!(stdout.contains("\"NC0202\""), "{stdout}");
    }

    #[test]
    fn unparseable_input_fires_nc0001() {
        let path = write_temp("garbage.sp", "t\nQ1 a b c bjt-not-supported\n");
        let output = Command::new(env!("CARGO_BIN_EXE_netcheck"))
            .arg(&path)
            .output()
            .unwrap();
        assert_eq!(output.status.code(), Some(1), "{output:?}");
        let stdout = String::from_utf8(output.stdout).unwrap();
        assert!(stdout.contains("NC0001"), "{stdout}");
    }

    /// One defect per input kind plus a clean bundle: the merged report
    /// is sorted once, so the files' order never shows in the output.
    #[test]
    fn mixed_inputs_report_the_same_in_any_order() {
        let files = [
            write_temp("order_groundless.sp", "island\nV1 a b DC 1\nR1 a b 1k\n"),
            write_temp("order_garbage.sp", "t\nQ1 a b c bjt-not-supported\n"),
            write_temp(
                "order_nonmono.lib",
                "library (nonmono) {\n  cell (INV) {\n    \
                 temperature_index (\"-50.000, 27.000, 150.000\");\n    \
                 cell_fall (\"6.0e-11, 5.0e-11, 7.5e-11\");\n    \
                 cell_rise (\"6.0e-11, 5.0e-11, 7.5e-11\");\n  }\n}\n",
            ),
            write_temp("order_malformed.toml", "[ring]\nmix = 4xBOGUS\n"),
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../../examples/certify/quickstart.toml"),
        ];
        let run = |flag: Option<&str>, order: [usize; 5]| -> Output {
            Command::new(env!("CARGO_BIN_EXE_netcheck"))
                .args(flag)
                .args(order.map(|i| &files[i]))
                .output()
                .unwrap()
        };
        for flag in [None, Some("--json")] {
            let forward = run(flag, [0, 1, 2, 3, 4]);
            let shuffled = run(flag, [4, 2, 0, 3, 1]);
            assert_eq!(forward.status.code(), Some(1), "{forward:?}");
            assert_eq!(shuffled.status.code(), forward.status.code());
            let stdout = String::from_utf8(forward.stdout).unwrap();
            assert_eq!(
                String::from_utf8(shuffled.stdout).unwrap(),
                stdout,
                "{flag:?}"
            );
            for rule in ["NC0202", "NC0301"] {
                assert!(stdout.contains(rule), "{flag:?}: {stdout}");
            }
            assert_eq!(stdout.matches("NC0001").count(), 2, "{flag:?}: {stdout}");
        }
    }

    #[test]
    fn rules_listing_covers_every_bank() {
        let output = Command::new(env!("CARGO_BIN_EXE_netcheck"))
            .arg("--rules")
            .output()
            .unwrap();
        assert!(output.status.success());
        let stdout = String::from_utf8(output.stdout).unwrap();
        for id in ["NC0201", "NC0301", "NC0401", "NC1401"] {
            assert!(stdout.contains(id), "{stdout}");
        }
    }
}
