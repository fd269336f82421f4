//! Fuzzing of the workspace's one JSON parser and its two consumers.
//!
//! [`json::parse`] reads user-supplied workload files through
//! [`load_services`] and checks Chrome-trace exports through
//! [`validate_chrome_trace`]. Whatever bytes arrive, all three must
//! return `Ok` or `Err` and never panic or overflow the stack, and a
//! parse error's offset must lie inside the input. A fixed-seed
//! [`SimRng`] drives random byte strings, byte-level mutations of a
//! real service config and of a real trace export, and random
//! [`Value`] trees that must survive `parse(v.pretty()) == v`. Every
//! mix the loader accepts samples each of its services once and runs
//! through a short [`Machine::run_workload`], neither of which may
//! panic: whatever the loader accepts must stay within simulated
//! time.

use accelflow_core::machine::{Machine, MachineConfig};
use accelflow_core::policy::Policy;
use accelflow_core::request::ServiceSpec;
use accelflow_sim::json::{self, Value};
use accelflow_sim::rng::SimRng;
use accelflow_sim::telemetry::validate_chrome_trace;
use accelflow_sim::time::SimDuration;
use accelflow_trace::templates::TraceLibrary;
use accelflow_workloads::config::{load_services, save_services, ConfigError};
use accelflow_workloads::socialnetwork;

/// Fragments spliced into inputs: structure, escapes, literals,
/// out-of-range numbers and multi-byte characters.
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", "\"", ":", ",", "\\", "\\u", "\\u12", "\\uD800", "null", "true", "fals",
    "-", "1e999", "0.5", "-0", "1e", " ", "\n", "é", "𝄞", "[[[[", "{\"a\":", "\"name\"",
];

/// Runs every consumer on `text`: each must return rather than panic,
/// the config loader must fail exactly where the parser does, and
/// every service of a mix it accepts must sample.
fn check(text: &str) {
    let (parsed, len) = (json::parse(text), text.len());
    if let Err(e) = &parsed {
        assert!(e.at <= len, "error offset {} past {len} bytes", e.at);
    }
    match (load_services(text), &parsed) {
        (Err(ConfigError::Json(e)), Err(p)) => assert_eq!(&e, p),
        (Err(ConfigError::Json(e)), Ok(_)) => panic!("loader failed to parse valid JSON: {e}"),
        (_, Err(p)) => panic!("loader accepted JSON the parser rejects: {p}"),
        (Ok(services), Ok(_)) => {
            sample_each(&services, len as u64);
            run_briefly(&services, len as u64);
        }
        (Err(ConfigError::Shape(_)), Ok(_)) => {}
    }
    if validate_chrome_trace(text).is_ok() {
        assert!(parsed.is_ok(), "trace validator accepted invalid JSON");
    }
}

/// Samples one program of each service.
fn sample_each(services: &[ServiceSpec], seed: u64) {
    let lib = TraceLibrary::standard();
    let mut rng = SimRng::seed(seed);
    for svc in services {
        svc.sample(&lib, &mut rng, 0);
    }
}

/// A random string over JSON's structural bytes, digits and a few raw
/// bytes (lossily decoded, as a file read would be).
fn random_text(rng: &mut SimRng) -> String {
    const ALPHABET: &[u8] = b"{}[]\":,\\ -+.0123456789eEtrufalsn\t\n";
    let bytes: Vec<u8> = (0..rng.index(64))
        .map(|_| {
            if rng.chance(0.1) {
                rng.index(256) as u8
            } else {
                ALPHABET[rng.index(ALPHABET.len())]
            }
        })
        .collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `seed` after one to four byte-level edits: overwrite, truncate,
/// delete a run, splice a token, or duplicate a slice elsewhere.
fn mutate(rng: &mut SimRng, seed: &str) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for _ in 0..1 + rng.index(4) {
        let at = rng.index(bytes.len() + 1);
        match rng.index(5) {
            0 if at < bytes.len() => bytes[at] = rng.index(256) as u8,
            1 => bytes.truncate(at),
            2 => {
                let end = (at + 1 + rng.index(16)).min(bytes.len());
                bytes.drain(at..end);
            }
            3 => {
                let token = TOKENS[rng.index(TOKENS.len())];
                bytes.splice(at..at, token.bytes());
            }
            _ => {
                let end = (at + rng.index(64)).min(bytes.len());
                let piece = bytes[at..end].to_vec();
                let to = rng.index(bytes.len() + 1);
                bytes.splice(to..to, piece);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// Runs `services` for 100 µs at 20 kRPS each, so every service
/// sees about two arrivals.
fn run_briefly(services: &[ServiceSpec], seed: u64) {
    if services.is_empty() {
        return;
    }
    let mut cfg = MachineConfig::new(Policy::AccelFlow);
    cfg.warmup = SimDuration::ZERO;
    let window = SimDuration::from_micros(100);
    Machine::run_workload(&cfg, services, 20_000.0, window, seed);
}

/// A small real export: a short telemetry-on AccelFlow run.
fn trace_export() -> String {
    let mut cfg = MachineConfig::new(Policy::AccelFlow);
    cfg.warmup = SimDuration::from_micros(100);
    cfg.telemetry = true;
    cfg.telemetry_sample = SimDuration::from_micros(200);
    let services = [socialnetwork::uniq_id()];
    let report = Machine::run_workload(&cfg, &services, 2_000.0, SimDuration::from_millis(1), 3);
    let json = report.telemetry.chrome_trace();
    validate_chrome_trace(&json).expect("the unmutated export is valid");
    json
}

#[test]
fn random_bytes_never_panic() {
    let mut rng = SimRng::seed(0x150_0001);
    for _ in 0..20_000 {
        check(&random_text(&mut rng));
    }
}

#[test]
fn mutated_service_configs_never_panic() {
    let config = save_services(&socialnetwork::all());
    check(&config);
    assert!(load_services(&config).is_ok());
    let mut rng = SimRng::seed(0x150_0002);
    for _ in 0..3_000 {
        check(&mutate(&mut rng, &config));
    }
}

#[test]
fn out_of_range_config_numbers_never_panic() {
    // Zero, negative, just under the 64-byte payload floor, and huge,
    // each in every numeric field of two services that between them
    // have cpu, call and parallel stages and a T4 chain.
    let mix = [
        socialnetwork::compose_post(),
        socialnetwork::read_home_timeline(),
    ];
    let config = save_services(&mix);
    let lines: Vec<&str> = config.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        let Some((key, value)) = line.split_once(": ") else {
            continue;
        };
        if !value.starts_with(|c: char| c == '-' || c.is_ascii_digit()) {
            continue;
        }
        let comma = if value.ends_with(',') { "," } else { "" };
        for with in ["0", "-1", "63", "1e300"] {
            let line = format!("{key}: {with}{comma}");
            let mut edited = lines.clone();
            edited[i] = &line;
            check(&edited.join("\n"));
        }
    }
}

#[test]
fn mutated_trace_exports_never_panic() {
    let trace = trace_export();
    let mut rng = SimRng::seed(0x150_0003);
    for _ in 0..1_000 {
        check(&mutate(&mut rng, &trace));
    }
}

#[test]
fn hostile_nesting_is_an_error_not_a_stack_overflow() {
    const DEEP: usize = 100_000;
    let arrays = "[".repeat(DEEP) + &"]".repeat(DEEP);
    let objects = "{\"a\":".repeat(DEEP) + "1" + &"}".repeat(DEEP);
    for text in [arrays, objects] {
        let err = json::parse(&text).expect_err("nesting past MAX_DEPTH");
        assert!(err.message.contains("nesting"), "{err}");
        assert!(matches!(load_services(&text), Err(ConfigError::Json(_))));
        assert!(validate_chrome_trace(&text).is_err());
    }
}

/// A random character, weighted toward the ones `pretty` must escape.
fn random_char(rng: &mut SimRng) -> char {
    const CHARS: &[char] = &[
        '"', '\\', '/', '\n', '\t', '\r', '\u{0}', '\u{8}', '\u{c}', '\u{1f}', 'a', 'Z', ' ', 'é',
        '✓', '𝄞', '\u{2028}',
    ];
    CHARS[rng.index(CHARS.len())]
}

fn random_string(rng: &mut SimRng) -> String {
    (0..rng.index(8)).map(|_| random_char(rng)).collect()
}

/// A random finite number: small integers, scaled fractions, or any
/// finite bit pattern (subnormals and extremes included).
fn random_number(rng: &mut SimRng) -> f64 {
    match rng.index(3) {
        0 => rng.index(2_001) as f64 - 1_000.0,
        1 => (rng.uniform() - 0.5) * 10f64.powi(rng.index(41) as i32 - 20),
        _ => loop {
            let bits = (rng.index(1 << 32) as u64) << 32 | rng.index(1 << 32) as u64;
            let n = f64::from_bits(bits);
            if n.is_finite() {
                break n;
            }
        },
    }
}

fn random_value(rng: &mut SimRng, depth: usize) -> Value {
    match rng.index(if depth == 0 { 4 } else { 6 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::Num(random_number(rng)),
        3 => Value::Str(random_string(rng)),
        4 => Value::Arr(
            (0..rng.index(5))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Obj(
            (0..rng.index(5))
                .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

#[test]
fn generated_values_roundtrip_through_pretty() {
    let mut rng = SimRng::seed(0x150_0004);
    for _ in 0..5_000 {
        let v = random_value(&mut rng, 5);
        let text = v.pretty();
        assert_eq!(json::parse(&text).as_ref(), Ok(&v), "{text}");
    }
}
