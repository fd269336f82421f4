//! Workload configuration files: describe a service mix in JSON, load
//! it as [`ServiceSpec`]s, and save built-in mixes back out.
//!
//! A downstream user points the simulator at their own services
//! without writing Rust:
//!
//! ```json
//! [
//!   {
//!     "name": "Checkout",
//!     "tenant": 1,
//!     "stages": [
//!       { "call": { "template": "T1" } },
//!       { "cpu": { "median_cycles": 50000, "sigma": 0.3 } },
//!       { "parallel": [ { "call": { "template": "T9", "cmp_prob": 0.5 } },
//!                        { "call": { "template": "T9" } } ] },
//!       { "call": { "template": "T2" } }
//!     ]
//!   }
//! ]
//! ```

use accelflow_accel::queue::TenantId;
use accelflow_core::request::{
    CallSpec, CyclesDist, ExternalSpec, FlagProbs, ServiceSpec, SizeDist, StageSpec,
};
use accelflow_sim::json::{parse, ParseError, Value};
use accelflow_sim::time::SimDuration;
use accelflow_trace::templates::TemplateId;

/// An error loading a workload config.
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// The JSON itself is malformed.
    Json(ParseError),
    /// The JSON is valid but not a workload description.
    Shape(String),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::Json(e) => write!(f, "{e}"),
            ConfigError::Shape(s) => write!(f, "config shape error: {s}"),
        }
    }
}

impl std::error::Error for ConfigError {}

impl From<ParseError> for ConfigError {
    fn from(e: ParseError) -> Self {
        ConfigError::Json(e)
    }
}

/// Largest accepted payload cap, in bytes (1 GiB).
const MAX_PAYLOAD: u64 = 1 << 30;

/// Largest accepted SLO slack multiplier.
const MAX_SLO_SLACK: f64 = 1e3;

fn shape<T>(msg: impl Into<String>) -> Result<T, ConfigError> {
    Err(ConfigError::Shape(msg.into()))
}

fn num(v: &Value, key: &str, default: f64) -> Result<f64, ConfigError> {
    match v.get(key) {
        None => Ok(default),
        Some(Value::Num(n)) => Ok(*n),
        Some(_) => shape(format!("'{key}' must be a number")),
    }
}

/// A log-normal median: sampling asserts it is positive.
fn median(v: &Value, key: &str, default: f64) -> Result<f64, ConfigError> {
    match num(v, key, default)? {
        m if m > 0.0 => Ok(m),
        m => shape(format!("'{key}' must be positive, not {m}")),
    }
}

/// A log-normal sigma: sampling asserts it is non-negative.
fn sigma(v: &Value, default: f64) -> Result<f64, ConfigError> {
    match num(v, "sigma", default)? {
        s if s >= 0.0 => Ok(s),
        s => shape(format!("'sigma' must be non-negative, not {s}")),
    }
}

/// Parses a template name like `"T9"`.
fn template(name: &str) -> Result<TemplateId, ConfigError> {
    TemplateId::ALL
        .into_iter()
        .find(|t| t.name() == name)
        .ok_or_else(|| ConfigError::Shape(format!("unknown template '{name}'")))
}

fn call_spec(v: &Value) -> Result<CallSpec, ConfigError> {
    let name = v
        .get("template")
        .and_then(Value::as_str)
        .ok_or_else(|| ConfigError::Shape("call needs a 'template' name".into()))?;
    let mut spec = CallSpec::new(template(name)?);
    spec.cmp_variant_prob = num(v, "cmp_prob", spec.cmp_variant_prob)?;
    if let Some(p) = v.get("payload") {
        // Sizes are clamped to `[64, max]` bytes; a cap past 1 GiB
        // would price transfers beyond simulated time.
        let max = num(p, "max", 32.0 * 1024.0)? as u64;
        if !(64..=MAX_PAYLOAD).contains(&max) {
            return shape(format!(
                "payload 'max' must be within 64..={MAX_PAYLOAD}, not {max}"
            ));
        }
        spec.payload = SizeDist::new(median(p, "median", 2048.0)?, sigma(p, 0.7)?, max);
    }
    if let Some(f) = v.get("flags") {
        spec.flags = FlagProbs {
            compressed: num(f, "compressed", 0.3)?,
            hit: num(f, "hit", 0.8)?,
            found: num(f, "found", 0.97)?,
            exception: num(f, "exception", 0.01)?,
            cache_compressed: num(f, "cache_compressed", 0.25)?,
        };
    }
    if let Some(e) = v.get("external") {
        spec.external = ExternalSpec::new(
            SimDuration::from_micros_f64(num(e, "median_us", 20.0)?),
            sigma(e, 0.4)?,
        );
    }
    Ok(spec)
}

fn stage(v: &Value) -> Result<StageSpec, ConfigError> {
    if let Some(cpu) = v.get("cpu") {
        return Ok(StageSpec::Cpu(CyclesDist::new(
            median(cpu, "median_cycles", 50_000.0)?,
            sigma(cpu, 0.35)?,
        )));
    }
    if let Some(call) = v.get("call") {
        return Ok(StageSpec::Call(call_spec(call)?));
    }
    if let Some(parallel) = v.get("parallel") {
        let items = parallel
            .as_arr()
            .ok_or_else(|| ConfigError::Shape("'parallel' must be an array".into()))?;
        if items.is_empty() {
            return shape("'parallel' must not be empty");
        }
        let calls = items
            .iter()
            .map(|item| {
                item.get("call")
                    .ok_or_else(|| ConfigError::Shape("parallel items need 'call'".into()))
                    .and_then(call_spec)
            })
            .collect::<Result<Vec<_>, _>>()?;
        return Ok(StageSpec::Parallel(calls));
    }
    shape("stage must be one of 'cpu', 'call', 'parallel'")
}

fn service(v: &Value) -> Result<ServiceSpec, ConfigError> {
    let name = v
        .get("name")
        .and_then(Value::as_str)
        .ok_or_else(|| ConfigError::Shape("service needs a 'name'".into()))?;
    let stages = v
        .get("stages")
        .and_then(Value::as_arr)
        .ok_or_else(|| ConfigError::Shape(format!("service '{name}' needs 'stages'")))?;
    if stages.is_empty() {
        return shape(format!("service '{name}' has no stages"));
    }
    let mut spec = ServiceSpec::new(name, stages.iter().map(stage).collect::<Result<_, _>>()?);
    spec.tenant = TenantId(num(v, "tenant", 0.0)? as u16);
    spec.priority = num(v, "priority", 0.0)? as u8;
    if let Some(Value::Num(slack)) = v.get("slo_slack") {
        // The deadline is the unloaded estimate times the slack.
        if !(*slack > 0.0 && *slack <= MAX_SLO_SLACK) {
            return shape(format!(
                "'slo_slack' must be within (0, {MAX_SLO_SLACK}], not {slack}"
            ));
        }
        spec.slo_slack = Some(*slack);
    }
    Ok(spec)
}

/// Loads a service mix from JSON text.
///
/// # Errors
///
/// Returns a [`ConfigError`] for malformed JSON or an unexpected shape.
///
/// # Example
///
/// ```
/// let json = r#"[{"name": "Ping", "stages": [
///     {"call": {"template": "T1"}},
///     {"cpu": {"median_cycles": 10000}},
///     {"call": {"template": "T2"}}
/// ]}]"#;
/// let services = accelflow_workloads::config::load_services(json).unwrap();
/// assert_eq!(services.len(), 1);
/// assert_eq!(services[0].name, "Ping");
/// ```
pub fn load_services(json: &str) -> Result<Vec<ServiceSpec>, ConfigError> {
    let root = parse(json)?;
    let list = root
        .as_arr()
        .ok_or_else(|| ConfigError::Shape("top level must be an array of services".into()))?;
    list.iter().map(service).collect()
}

/// Serializes a service mix to JSON (the inverse of
/// [`load_services`], up to default-valued fields).
pub fn save_services(services: &[ServiceSpec]) -> String {
    let svc_value = |svc: &ServiceSpec| {
        let stage_value = |st: &StageSpec| match st {
            StageSpec::Cpu(c) => Value::obj([(
                "cpu",
                Value::obj([
                    ("median_cycles", Value::Num(c.median)),
                    ("sigma", Value::Num(c.sigma)),
                ]),
            )]),
            StageSpec::Call(c) => Value::obj([("call", call_value(c))]),
            StageSpec::Parallel(calls) => Value::obj([(
                "parallel",
                Value::Arr(
                    calls
                        .iter()
                        .map(|c| Value::obj([("call", call_value(c))]))
                        .collect(),
                ),
            )]),
        };
        let mut fields = vec![
            ("name", Value::Str(svc.name.clone())),
            ("tenant", Value::Num(svc.tenant.0 as f64)),
            ("priority", Value::Num(svc.priority as f64)),
            (
                "stages",
                Value::Arr(svc.stages.iter().map(stage_value).collect()),
            ),
        ];
        if let Some(slack) = svc.slo_slack {
            fields.push(("slo_slack", Value::Num(slack)));
        }
        Value::obj(fields)
    };
    Value::Arr(services.iter().map(svc_value).collect()).pretty()
}

fn call_value(c: &CallSpec) -> Value {
    Value::obj([
        ("template", Value::Str(c.template.name().to_string())),
        ("cmp_prob", Value::Num(c.cmp_variant_prob)),
        (
            "payload",
            Value::obj([
                ("median", Value::Num(c.payload.median)),
                ("sigma", Value::Num(c.payload.sigma)),
                ("max", Value::Num(c.payload.max as f64)),
            ]),
        ),
        (
            "flags",
            Value::obj([
                ("compressed", Value::Num(c.flags.compressed)),
                ("hit", Value::Num(c.flags.hit)),
                ("found", Value::Num(c.flags.found)),
                ("exception", Value::Num(c.flags.exception)),
                ("cache_compressed", Value::Num(c.flags.cache_compressed)),
            ]),
        ),
        (
            "external",
            Value::obj([
                ("median_us", Value::Num(c.external.median.as_micros_f64())),
                ("sigma", Value::Num(c.external.sigma)),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_a_minimal_service() {
        let json = r#"[{"name": "Ping", "stages": [
            {"call": {"template": "T1"}},
            {"cpu": {"median_cycles": 10000}},
            {"call": {"template": "T2"}}
        ]}]"#;
        let services = load_services(json).unwrap();
        assert_eq!(services.len(), 1);
        assert_eq!(services[0].name, "Ping");
        assert_eq!(services[0].stages.len(), 3);
    }

    #[test]
    fn loads_full_options() {
        let json = r#"[{"name": "Rich", "tenant": 3, "priority": 5, "slo_slack": 4.5,
            "stages": [
              {"call": {"template": "T9", "cmp_prob": 0.4,
                        "payload": {"median": 4096, "sigma": 0.5, "max": 65536},
                        "flags": {"compressed": 0.9, "hit": 0.5, "found": 1.0,
                                  "exception": 0.0, "cache_compressed": 0.0},
                        "external": {"median_us": 75, "sigma": 0.2}}},
              {"parallel": [{"call": {"template": "T8"}}, {"call": {"template": "T8"}}]}
        ]}]"#;
        let services = load_services(json).unwrap();
        let svc = &services[0];
        assert_eq!(svc.tenant.0, 3);
        assert_eq!(svc.priority, 5);
        assert_eq!(svc.slo_slack, Some(4.5));
        match &svc.stages[0] {
            StageSpec::Call(c) => {
                assert_eq!(c.template.name(), "T9");
                assert_eq!(c.cmp_variant_prob, 0.4);
                assert_eq!(c.payload.max, 65536);
                assert_eq!(c.flags.compressed, 0.9);
                assert!((c.external.median.as_micros_f64() - 75.0).abs() < 1e-9);
            }
            other => panic!("expected call, got {other:?}"),
        }
        match &svc.stages[1] {
            StageSpec::Parallel(calls) => assert_eq!(calls.len(), 2),
            other => panic!("expected parallel, got {other:?}"),
        }
    }

    #[test]
    fn save_load_roundtrip_preserves_structure() {
        let services = crate::socialnetwork::all();
        let json = save_services(&services);
        let back = load_services(&json).unwrap();
        assert_eq!(back.len(), services.len());
        for (a, b) in services.iter().zip(&back) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.stages.len(), b.stages.len(), "{}", a.name);
        }
        // Note: custom traces (relief_suite) are not expressible in
        // configs — only template calls round-trip.
    }

    #[test]
    fn helpful_shape_errors() {
        assert!(matches!(load_services("{}"), Err(ConfigError::Shape(_))));
        let err = load_services(r#"[{"name": "X", "stages": [{"call": {"template": "T99"}}]}]"#)
            .unwrap_err();
        assert!(err.to_string().contains("T99"));
        let err = load_services(r#"[{"stages": []}]"#).unwrap_err();
        assert!(err.to_string().contains("name"));
        let err = load_services(r#"[{"name": "X", "stages": [{"dance": {}}]}]"#).unwrap_err();
        assert!(err.to_string().contains("one of"));
        assert!(matches!(load_services("[oops"), Err(ConfigError::Json(_))));
    }

    /// Loads one service whose only stage is `stage`.
    fn load_stage(stage: &str) -> Result<Vec<ServiceSpec>, ConfigError> {
        load_services(&format!(r#"[{{"name": "X", "stages": [{stage}]}}]"#))
    }

    /// A call stage of `template` with extra `fields`.
    fn call(template: &str, fields: &str) -> String {
        format!(r#"{{"call": {{"template": "{template}", {fields}}}}}"#)
    }

    /// Sampling `stage` would panic, so loading it is a shape error
    /// naming `field`.
    fn assert_rejected(stage: &str, field: &str) {
        match load_stage(stage) {
            Err(ConfigError::Shape(msg)) => assert!(msg.contains(field), "{msg}"),
            other => panic!("{stage}: expected a shape error, got {other:?}"),
        }
    }

    #[test]
    fn payload_max_below_the_size_floor_is_rejected() {
        assert_rejected(&call("T1", r#""payload": {"max": 63}"#), "max");
        assert!(load_stage(&call("T1", r#""payload": {"max": 64}"#)).is_ok());
    }

    #[test]
    fn values_that_would_overflow_simulated_time_are_rejected() {
        assert_rejected(&call("T1", r#""payload": {"max": 2e9}"#), "max");
        assert!(load_stage(&call("T1", r#""payload": {"max": 1073741824}"#)).is_ok());
        for slack in ["0", "-1", "1e300"] {
            let json =
                format!(r#"[{{"name": "S", "slo_slack": {slack}, "stages": [{{"cpu": {{}}}}]}}]"#);
            match load_services(&json) {
                Err(ConfigError::Shape(msg)) => assert!(msg.contains("slo_slack"), "{msg}"),
                other => panic!("slack {slack}: expected a shape error, got {other:?}"),
            }
        }
    }

    #[test]
    fn non_positive_payload_median_is_rejected() {
        assert_rejected(&call("T1", r#""payload": {"median": 0}"#), "median");
    }

    #[test]
    fn negative_payload_sigma_is_rejected() {
        assert_rejected(&call("T1", r#""payload": {"sigma": -0.1}"#), "sigma");
    }

    #[test]
    fn non_positive_cpu_median_is_rejected() {
        assert_rejected(r#"{"cpu": {"median_cycles": -5}}"#, "median_cycles");
    }

    #[test]
    fn negative_external_sigma_is_rejected() {
        assert_rejected(&call("T4", r#""external": {"sigma": -1}"#), "sigma");
        assert!(load_stage(&call("T4", r#""external": {"sigma": 0}"#)).is_ok());
    }

    #[test]
    fn loaded_services_run_on_the_machine() {
        use accelflow_core::machine::{Machine, MachineConfig};
        use accelflow_core::policy::Policy;

        let json = save_services(&[crate::socialnetwork::uniq_id()]);
        let services = load_services(&json).unwrap();
        let mut cfg = MachineConfig::new(Policy::AccelFlow);
        cfg.warmup = SimDuration::from_millis(1);
        let report = Machine::run_workload(&cfg, &services, 500.0, SimDuration::from_millis(20), 3);
        assert!(report.completion_ratio() > 0.99);
    }
}
