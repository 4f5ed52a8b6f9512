//! The benchmark's own tests: seeded inputs, span arithmetic, derived
//! residuals, the percentile rule, and the metric names it declares.

use bmb_perfbench::report::{per_layer, Report, END_TO_END};
use bmb_perfbench::seq::{render, sequence, Op, CLUSTER_MIX, SERVE_MIX};
use bmb_perfbench::stats::{
    quantile_sorted, residual, resolved_tail_quantile, windowed_p99, Summary, P99_WINDOWS,
};
use bmb_perfbench::trace::{self_time_per_trace, self_times, Span, Tracer};
use bmb_perfbench::workloads::{shuffled_baskets, SetupClock};
use bmb_perfbench::Args;
use bmb_serve::json::{parse, Value};

fn pool() -> Vec<Vec<u32>> {
    (0..50u32)
        .map(|i| vec![i % 7, 7 + i % 11, 20 + i % 13])
        .collect()
}

#[test]
fn same_seed_sends_byte_identical_requests() {
    let items: Vec<u32> = (0..200).collect();
    for mix in [&SERVE_MIX, &CLUSTER_MIX] {
        for client in 0..2 {
            let a = render(&sequence(42, client, 2_000, mix, &items, &pool()));
            let b = render(&sequence(42, client, 2_000, mix, &items, &pool()));
            assert_eq!(a.as_bytes(), b.as_bytes());
            let other = render(&sequence(43, client, 2_000, mix, &items, &pool()));
            assert_ne!(a, other, "another seed draws another sequence");
        }
    }
    let c0 = render(&sequence(42, 0, 100, &SERVE_MIX, &items, &pool()));
    let c1 = render(&sequence(42, 1, 100, &SERVE_MIX, &items, &pool()));
    assert_ne!(c0, c1, "clients replay different sequences");
}

#[test]
fn sequences_follow_the_mix() {
    let items: Vec<u32> = (0..200).collect();
    let ops = sequence(7, 0, 10_000, &SERVE_MIX, &items, &pool());
    let share = |f: fn(&Op) -> bool| ops.iter().filter(|op| f(op)).count() as f64 / 100.0;
    assert!((share(|op| matches!(op, Op::Chi2(_))) - 60.0).abs() < 3.0);
    assert!((share(|op| matches!(op, Op::Batch(_))) - 30.0).abs() < 3.0);
    assert!((share(|op| matches!(op, Op::Ingest(_))) - 10.0).abs() < 2.0);
    let hot = [3u32, 9, 12, 40];
    for op in sequence(7, 1, 1_000, &CLUSTER_MIX, &hot, &[]) {
        let sets = match op {
            Op::Chi2(set) => vec![set],
            Op::Batch(sets) => sets,
            Op::Ingest(_) => panic!("cluster mix is read-only"),
        };
        for set in sets {
            assert_eq!(set.len(), 2, "cluster queries are pairs");
            assert!(set[0] < set[1] && set.iter().all(|i| hot.contains(i)));
        }
    }
}

#[test]
fn the_warm_up_mix_only_reads() {
    let items: Vec<u32> = (0..200).collect();
    let ops = sequence(7, 1, 10_000, &SERVE_MIX.read_only(), &items, &[]);
    assert!(ops.iter().all(|op| !matches!(op, Op::Ingest(_))));
    let share = |f: fn(&Op) -> bool| ops.iter().filter(|op| f(op)).count() as f64 / 100.0;
    assert!((share(|op| matches!(op, Op::Chi2(_))) - 70.0).abs() < 3.0);
    assert!((share(|op| matches!(op, Op::Batch(_))) - 30.0).abs() < 3.0);
}

#[test]
fn the_seed_orders_the_same_baskets() {
    let db = bmb_basket::BasketDatabase::from_id_baskets(60, pool());
    let a = shuffled_baskets(&db, 5);
    assert_eq!(a, shuffled_baskets(&db, 5), "same seed, same order");
    let b = shuffled_baskets(&db, 6);
    assert_ne!(a, b, "another seed, another order");
    let sorted = |mut v: Vec<Vec<u32>>| {
        v.sort();
        v
    };
    assert_eq!(sorted(a), sorted(b), "every seed holds the same baskets");
}

#[test]
fn setup_s_is_the_median_of_set_ups_on_both_sides_of_the_window() {
    let argv = |trace: &str| {
        let line = format!("--workload w --trace {trace}");
        Args::parse(line.split_whitespace().map(str::to_string)).expect("parses")
    };
    let mut set_ups = 0;
    let mut clock = SetupClock::default();
    let state = clock
        .before(&argv("0"), 4, |rep| {
            set_ups += 1;
            Ok(rep)
        })
        .expect("set up");
    assert_eq!(state, 3, "the last set-up is kept");
    assert_eq!(set_ups, 4);
    let mut after = Vec::new();
    clock
        .after(&argv("0"), 3, |rep| {
            after.push(rep);
            Ok(())
        })
        .expect("set up");
    assert_eq!(
        after,
        vec![4, 5, 6],
        "set-up indices run on across the window"
    );
    let mut report = Report::default();
    clock.finish(&mut report);
    assert!(report.get("setup_s").is_some_and(|s| s >= 0.0));
    assert!(report.notes[0].contains("median of 7 set-ups"));

    let mut traced = SetupClock::default();
    let mut runs = 0;
    traced
        .before(&argv("1"), 4, |_| {
            runs += 1;
            Ok(())
        })
        .expect("set up");
    traced
        .after(&argv("1"), 3, |_| {
            runs += 1;
            Ok(())
        })
        .expect("set up");
    assert_eq!(runs, 1, "a traced run sets up once");
}

fn span(name: &'static str, trace: u64, parent: Option<usize>, start: u64, end: u64) -> Span {
    Span {
        name,
        trace,
        parent,
        start_ns: start,
        end_ns: end,
    }
}

#[test]
fn self_time_is_duration_minus_covered_children() {
    let spans = vec![
        span("op", 1, None, 0, 100),
        // Two overlapping children cover [10, 50): 40 ns, not 50.
        span("a", 1, Some(0), 10, 30),
        span("b", 1, Some(0), 20, 50),
        // A child running past its parent only covers the overlap.
        span("c", 1, Some(0), 90, 120),
        // A grandchild counts against its own parent, not the root.
        span("d", 1, Some(1), 12, 18),
    ];
    assert_eq!(self_times(&spans), vec![50, 14, 30, 30, 6]);

    let mut tracer = Tracer::new();
    let root = tracer.begin("op", 9, None);
    tracer.time("leaf", 9, Some(root), || std::hint::black_box(1 + 1));
    tracer.end(root);
    let own = self_times(tracer.spans());
    assert_eq!(own[0] + own[1], tracer.spans()[0].duration_ns());
}

#[test]
fn a_tracer_that_is_off_runs_the_same_calls_and_records_nothing() {
    let mut off = Tracer::off();
    let root = off.begin("op", 1, None);
    assert_eq!(off.time("leaf", 1, Some(root), || 41 + 1), 42);
    off.push(span("pushed", 1, Some(root), 0, 5));
    off.end(root);
    assert!(off.spans().is_empty());
}

#[test]
fn self_time_sums_per_trace() {
    let spans = vec![
        span("op", 1, None, 0, 100),
        span("engine.table", 1, Some(0), 0, 10),
        span("engine.table", 1, Some(0), 20, 35),
        span("op", 2, None, 200, 260),
        span("engine.table", 2, Some(3), 210, 250),
    ];
    let per = self_time_per_trace(&spans);
    assert_eq!(per["engine.table"], vec![25, 40]);
    assert_eq!(per["op"], vec![75, 20]);
}

#[test]
fn derived_residuals_are_never_negative() {
    assert_eq!(residual(5.0, 10.0), 0.0);
    assert_eq!(residual(10.0, 4.0), 6.0);
    let mut x = 0x1234_5678_u64;
    for _ in 0..10_000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let total = (x >> 40) as f64;
        let parts = (x & 0xFF_FFFF) as f64;
        assert!(residual(total, parts) >= 0.0);
    }
}

#[test]
fn p99_is_withheld_below_a_thousand_samples() {
    let samples = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
    let short = Summary::of(&samples(999)).expect("summary");
    assert_eq!(short.p99, None);
    let beyond = |tail: f64, n: usize| samples(n).iter().filter(|&&v| v > tail).count();
    assert_eq!(
        beyond(short.tail, 999),
        10,
        "the fallback keeps ten beyond it"
    );
    assert_eq!(resolved_tail_quantile(40), 0.75);
    assert_eq!(resolved_tail_quantile(12), 0.5, "never below the median");
    let enough = Summary::of(&samples(1000)).expect("summary");
    let p99 = enough.p99.expect("p99 resolved at 1000 samples");
    assert!((p99 - 990.01).abs() < 1e-9, "{p99}");
    assert_eq!(enough.p50, 500.5);
    assert!(Summary::of(&[]).is_none());

    // The reported op_p99_us falls back to the resolved tail when withheld.
    let mut report = Report::default();
    report.set_op_latency(&samples(999));
    assert_eq!(report.get("op_p99_us"), Some(short.tail));
    report.set_op_latency(&samples(1000));
    assert_eq!(report.get("op_p99_us"), Some(p99));
    assert_eq!(quantile_sorted(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
}

#[test]
fn windowed_p99_resolves_each_window_and_shrugs_off_one_stall() {
    let steady: Vec<f64> = (0..5_000).map(|i| 100.0 + (i % 100) as f64).collect();
    assert_eq!(
        windowed_p99(&steady[..999]),
        None,
        "p99 withheld below 1000"
    );
    let (p99, windows) = windowed_p99(&steady).expect("resolved");
    assert_eq!(windows, 5, "one window per 1000 samples");
    let mut stalled = steady.clone();
    for v in &mut stalled[1_000..2_000] {
        *v *= 10.0;
    }
    assert_eq!(windowed_p99(&stalled), Some((p99, 5)));
    let long: Vec<f64> = (0..50_000).map(|i| i as f64).collect();
    assert_eq!(windowed_p99(&long).map(|(_, w)| w), Some(P99_WINDOWS));
}

#[test]
fn args_parse_the_command_line_flags() {
    let argv = |s: &str| s.split_whitespace().map(str::to_string).collect::<Vec<_>>();
    let args = Args::parse(argv(
        "--workload serve_durable --seed 7 --seconds 12 --trace 1",
    ))
    .expect("parses");
    assert_eq!(args.workload, "serve_durable");
    assert_eq!((args.seed, args.seconds, args.trace), (7, 12, true));
    assert!(Args::parse(argv("--workload x --trace 2")).is_err());
    assert!(Args::parse(argv("--seed 1")).is_err());
    assert!(Args::parse(argv("--workload x --bogus 1")).is_err());
}

#[test]
fn result_line_carries_every_metric_with_its_unit() {
    let mut report = Report::default();
    report.attempted = 10;
    report.set("setup_s", 0.5);
    let line = report.json_line(END_TO_END);
    let value = parse(&line).expect("valid JSON");
    assert_eq!(value.get("correct").and_then(Value::as_bool), Some(true));
    let metrics = value.get("metrics").expect("metrics");
    for (name, unit) in END_TO_END {
        let entry = metrics.get(name).expect("every metric present");
        assert_eq!(entry.get("unit").and_then(Value::as_str), Some(*unit));
    }
    report.mismatch("x".to_string());
    assert!(line.contains("\"correct\":true"));
    assert!(report.json_line(END_TO_END).contains("\"correct\":false"));
}

#[test]
fn benchmark_json_declares_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let spec = parse(&text).expect("BENCHMARK.json parses");
    let declared = |key: &str| -> Vec<(String, String)> {
        spec.get(key)
            .and_then(Value::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap_or("").to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let end_to_end: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("end_to_end"), end_to_end);
    let layers: Vec<(String, String)> = per_layer()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(declared("per_layer"), layers);
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Value::as_array)
        .expect("workloads")
        .iter()
        .filter_map(|w| w.get("name").and_then(Value::as_str).map(str::to_string))
        .collect();
    assert_eq!(workloads, bmb_perfbench::workloads::NAMES);
}

#[test]
fn p90_is_withheld_below_a_hundred_samples() {
    let samples = |n: usize| (1..=n).map(|v| v as f64).collect::<Vec<_>>();
    let short = Summary::of(&samples(99)).expect("summary");
    assert_eq!(short.p90, None);
    let enough = Summary::of(&samples(100)).expect("summary");
    let p90 = enough.p90.expect("p90 resolved at 100 samples");
    assert!((p90 - 90.1).abs() < 1e-9, "{p90}");

    // The reported op_p90_us falls back to the resolved tail when withheld.
    let mut report = Report::default();
    report.set_op_latency(&samples(30));
    let tail = Summary::of(&samples(30)).expect("summary").tail;
    assert_eq!(report.get("op_p90_us"), Some(tail));
    assert_eq!(report.get("op_p99_us"), Some(tail));
    report.set_op_latency(&samples(100));
    assert_eq!(report.get("op_p90_us"), Some(p90));
}
