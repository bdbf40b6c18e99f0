//! Self-tests of the benchmark at Mini size: failures are counted,
//! modeled values are deterministic, the seed drives the serving
//! arrivals, and every metric is emitted with its unit as declared in
//! `BENCHMARK.json`.

use perfbench::trace::Tracer;
use perfbench::{
    measure, report, result_json, run_pass, serve, setup, Scale, Workload, END_TO_END, PER_LAYER,
};

#[test]
fn a_doctored_array_is_counted_as_a_failure() {
    for w in Workload::ALL {
        let s = setup(w, Scale::Mini, 7);
        let clean = run_pass(&s, &mut Tracer::new(false), false);
        assert!(clean.attempted > 0, "{w:?} attempts nothing");
        assert_eq!(clean.failed, 0, "{w:?} fails on the current code");
        let doctored = run_pass(&s, &mut Tracer::new(false), true);
        assert_eq!(doctored.attempted, clean.attempted, "{w:?}");
        let parts = match w {
            Workload::PolybenchMedium => 1,
            Workload::ChainServe => 2,
        };
        assert_eq!(doctored.failed, parts, "{w:?} must count one doctored array per part");
    }
}

#[test]
fn the_same_seed_gives_identical_modeled_values_traced_or_not() {
    for w in Workload::ALL {
        let a = run_pass(&setup(w, Scale::Mini, 3), &mut Tracer::new(false), false);
        let b = run_pass(&setup(w, Scale::Mini, 3), &mut Tracer::new(true), false);
        assert!(!a.modeled.is_empty(), "{w:?}");
        let bits = |m: &perfbench::stats::Modeled| {
            m.iter().map(|(k, v)| (k.clone(), v.to_bits())).collect::<Vec<_>>()
        };
        assert_eq!(bits(&a.modeled), bits(&b.modeled), "{w:?}");
    }
}

#[test]
fn the_seed_draws_the_serving_arrivals() {
    let a = serve::setup(40, 1);
    assert_eq!(a.steps, serve::setup(40, 1).steps);
    let b = serve::setup(40, 2);
    assert_eq!(a.service, b.service, "the service time does not depend on the seed");
    assert_ne!(a.steps, b.steps);
    let modeled = |seed| {
        run_pass(&setup(Workload::ChainServe, Scale::Mini, seed), &mut Tracer::new(false), false)
            .modeled
    };
    assert_ne!(modeled(1)["p99_sojourn_us"], modeled(2)["p99_sojourn_us"]);
}

/// `"name": "<name>", "unit": "<unit>"` of every entry of a
/// `BENCHMARK.json` section, in order.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits next to the benchmark");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..start + text[start..].find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        rest[open..open + rest[open..].find('"').expect("string closes")].to_string()
    };
    body.split('{').skip(1).map(|e| (field(e, "name"), field(e, "unit"))).collect()
}

#[test]
fn every_metric_is_emitted_with_its_declared_unit_on_every_workload() {
    let owned = |defs: &[(&str, &str)]| {
        defs.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect::<Vec<_>>()
    };
    assert_eq!(declared("end_to_end"), owned(&END_TO_END));
    assert_eq!(declared("per_layer"), owned(&PER_LAYER));
    for w in Workload::ALL {
        for trace in [false, true] {
            let m = measure(w, Scale::Mini, 5, 0.0, trace);
            assert!(m.correct(), "{w:?} trace={trace}");
            let json = result_json(&m, trace);
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
            let defs: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
            for (name, unit) in defs {
                let entry = format!("\"{name}\": {{\"value\": ");
                let at = json.find(&entry).unwrap_or_else(|| panic!("{w:?} lacks {name}"));
                let value = &json[at + entry.len()..];
                let number = &value[..value.find(',').unwrap_or(value.len())];
                assert!(number != "null", "{w:?} {name} is not finite");
                // End-to-end metrics are never 0.
                assert!(trace || number.parse::<f64>().is_ok_and(|v| v > 0.0), "{w:?} {name}");
                let unit_at = value.find("\"unit\": ").expect("unit follows value");
                assert!(value[unit_at..].starts_with(&format!("\"unit\": \"{unit}\"")));
            }
        }
        let text = report(w, 5, &measure(w, Scale::Mini, 5, 0.0, false)).join("\n");
        let specific: &[&str] = match w {
            Workload::PolybenchMedium => &["speedup_x", "energy_x"],
            Workload::ChainServe => {
                &["p50_sojourn_us", "p99_sojourn_us", "sojourn_samples", "max_load_x"]
            }
        };
        for name in specific.iter().chain(&["failed_frac"]) {
            assert!(text.contains(name), "{w:?} report lacks {name}:\n{text}");
        }
    }
}
