//! Newline-delimited JSON request/reply codec.
//!
//! One request per line in, one reply per line out — the transport the
//! `fun3d-serve` binary speaks over stdin/stdout and Unix sockets.
//! Parsing is strict: unknown mesh names and malformed JSON become
//! structured `bad_request` rejections, never panics, because admission
//! control is the first consumer of the result.
//!
//! u64 values that must survive the wire exactly (tenant hashes, state
//! checksums) travel as fixed-width hex strings: the in-tree `Json`
//! number is an `f64`, which would silently round them.

use crate::service::{RejectReason, Rejected, SolveReply};
use fun3d_core::OptConfig;
use fun3d_mesh::generator::MeshPreset;
use fun3d_solver::ptc::PtcConfig;
use fun3d_util::{fnv1a, fnv1a_word};
use fun3d_util::telemetry::Json;

/// One solve request: a mesh preset plus the `OptConfig`/ΨTC knobs a
/// tenant may turn. Everything else (execution scheme, partitioning,
/// SIMD, threading) belongs to the service, not the tenant.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveRequest {
    /// Tenant name (fairness/accounting identity).
    pub tenant: String,
    /// Mesh preset to solve on.
    pub mesh: MeshPreset,
    /// Relative convergence tolerance.
    pub rtol: f64,
    /// Pseudo-time step budget.
    pub max_steps: usize,
    /// Initial pseudo-time step.
    pub dt0: f64,
    /// ILU fill level.
    pub ilu_fill: usize,
    /// Rebuild the ILU factors only every `n` steps.
    pub ilu_lag: usize,
    /// Venkatakrishnan limiter on the reconstruction gradients.
    pub use_limiter: bool,
    /// Weighted least-squares gradients instead of Green-Gauss.
    pub use_lsq_gradients: bool,
    /// Krylov iteration budget per linear solve (0 = solver default).
    /// Latency-sensitive tenants bound the work a request may cost.
    pub max_linear_iters: usize,
}

impl SolveRequest {
    /// A request with the service-default knobs for a mesh: a short,
    /// loosely-converged solve of the kind a latency-sensitive tenant
    /// issues.
    pub fn new(tenant: impl Into<String>, mesh: MeshPreset) -> SolveRequest {
        SolveRequest {
            tenant: tenant.into(),
            mesh,
            rtol: 1e-6,
            max_steps: 60,
            dt0: 2.0,
            ilu_fill: 1,
            ilu_lag: 1,
            use_limiter: false,
            use_lsq_gradients: false,
            max_linear_iters: 0,
        }
    }

    /// The solver configuration a dispatcher team with `nt` workers
    /// runs this request under: the paper's optimized kernels with
    /// `ExecMode::Auto`, so the PR 6 cost model picks serial vs team
    /// per solve, plus the tenant's discretization knobs.
    pub fn opt_config(&self, nt: usize) -> OptConfig {
        let mut cfg = OptConfig::optimized(nt);
        cfg.ilu_fill = self.ilu_fill;
        cfg.ilu_lag = self.ilu_lag;
        cfg.use_limiter = self.use_limiter;
        cfg.use_lsq_gradients = self.use_lsq_gradients;
        cfg
    }

    /// The ΨTC driver configuration for this request.
    pub fn ptc_config(&self) -> PtcConfig {
        let mut cfg = PtcConfig {
            dt0: self.dt0,
            rtol: self.rtol,
            max_steps: self.max_steps,
            ..Default::default()
        };
        if self.max_linear_iters > 0 {
            cfg.gmres.max_iters = self.max_linear_iters;
        }
        cfg
    }

    /// Cache key of the *prepared app* this request needs: everything
    /// that shapes the expensive immutable artifacts (mesh build + RCM,
    /// dual metrics, partitions/tilings, ILU pattern, schedules). Two
    /// requests with equal prep keys can share one `Fun3dApp` instance
    /// bitwise-safely; ΨTC knobs (`rtol`, `max_steps`, `dt0`) are per
    /// solve and deliberately excluded.
    // Public for the benchmark's `serve` tests, which check that its
    // request classes hit the app cache they are meant to.
    pub fn prep_key(&self, nt: usize) -> u64 {
        let mut h = fnv1a(self.mesh.name().as_bytes());
        h = fnv1a_word(h, nt as u64);
        h = fnv1a_word(h, self.ilu_fill as u64);
        h = fnv1a_word(h, self.ilu_lag as u64);
        h = fnv1a_word(h, self.use_limiter as u64);
        h = fnv1a_word(h, self.use_lsq_gradients as u64);
        h
    }

    /// Cache key of the *first ILU factors* of this request's solve.
    /// ΨTC's first preconditioner build happens at `dt = dt0` on the
    /// free-stream state, and factorization is serial, so the factors
    /// are a pure function of (discretization, `dt0`) — independent of
    /// the team's thread count. The key extends [`SolveRequest::prep_key`]
    /// at `nt = 0` (a sentinel no team uses) with the `dt0` bits.
    pub(crate) fn factor_key(&self) -> u64 {
        fnv1a_word(self.prep_key(0), self.dt0.to_bits())
    }

    /// Renders the request as one NDJSON line ([`SolveRequest::parse`]'s
    /// inverse).
    // Public for the benchmark's `serve` tests, which compare rendered
    // request streams; the service itself only parses requests.
    pub fn render(&self) -> String {
        Json::obj(vec![
            ("tenant", Json::str(&self.tenant)),
            ("mesh", Json::str(self.mesh.name())),
            ("rtol", Json::num(self.rtol)),
            ("max_steps", Json::num(self.max_steps as f64)),
            ("dt0", Json::num(self.dt0)),
            ("ilu_fill", Json::num(self.ilu_fill as f64)),
            ("ilu_lag", Json::num(self.ilu_lag as f64)),
            ("max_linear_iters", Json::num(self.max_linear_iters as f64)),
            ("limiter", Json::Bool(self.use_limiter)),
            ("lsq_gradients", Json::Bool(self.use_lsq_gradients)),
        ])
        .render()
    }

    /// Parses one NDJSON request line. The error is the rejection the
    /// service returns verbatim (`bad_request` with a human detail).
    pub fn parse(line: &str) -> Result<SolveRequest, String> {
        let v = Json::parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
        let tenant = v
            .get("tenant")
            .and_then(Json::as_str)
            .ok_or("missing string field 'tenant'")?
            .to_string();
        if tenant.is_empty() {
            return Err("'tenant' must be non-empty".into());
        }
        let mesh_name = v
            .get("mesh")
            .and_then(Json::as_str)
            .ok_or("missing string field 'mesh'")?;
        let mesh = MeshPreset::parse(mesh_name)
            .ok_or_else(|| format!("unknown mesh preset '{mesh_name}'"))?;
        let mut req = SolveRequest::new(tenant, mesh);
        if let Some(x) = opt_f64(&v, "rtol")? {
            if !(x > 0.0) {
                return Err("'rtol' must be > 0".into());
            }
            req.rtol = x;
        }
        if let Some(x) = opt_f64(&v, "dt0")? {
            if !(x > 0.0) {
                return Err("'dt0' must be > 0".into());
            }
            req.dt0 = x;
        }
        if let Some(x) = opt_usize(&v, "max_steps")? {
            if x == 0 {
                return Err("'max_steps' must be >= 1".into());
            }
            req.max_steps = x;
        }
        if let Some(x) = opt_usize(&v, "ilu_fill")? {
            if x > 3 {
                return Err("'ilu_fill' must be <= 3".into());
            }
            req.ilu_fill = x;
        }
        if let Some(x) = opt_usize(&v, "ilu_lag")? {
            if x == 0 {
                return Err("'ilu_lag' must be >= 1".into());
            }
            req.ilu_lag = x;
        }
        if let Some(x) = opt_usize(&v, "max_linear_iters")? {
            req.max_linear_iters = x;
        }
        if let Some(b) = opt_bool(&v, "limiter")? {
            req.use_limiter = b;
        }
        if let Some(b) = opt_bool(&v, "lsq_gradients")? {
            req.use_lsq_gradients = b;
        }
        Ok(req)
    }
}

fn opt_f64(v: &Json, key: &str) -> Result<Option<f64>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x
            .as_f64()
            .filter(|x| x.is_finite())
            .map(Some)
            .ok_or_else(|| format!("'{key}' must be a finite number")),
    }
}

fn opt_usize(v: &Json, key: &str) -> Result<Option<usize>, String> {
    match opt_f64(v, key)? {
        None => Ok(None),
        Some(x) if x >= 0.0 && x.fract() == 0.0 => Ok(Some(x as usize)),
        Some(_) => Err(format!("'{key}' must be a non-negative integer")),
    }
}

fn opt_bool(v: &Json, key: &str) -> Result<Option<bool>, String> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(Json::Bool(b)) => Ok(Some(*b)),
        Some(_) => Err(format!("'{key}' must be a boolean")),
    }
}

/// Renders a completed solve as one NDJSON reply line.
pub fn render_reply(r: &SolveReply) -> String {
    Json::obj(vec![
        ("ok", Json::Bool(true)),
        ("tenant", Json::str(&r.tenant)),
        ("solve_id", Json::num(r.solve_id as f64)),
        ("converged", Json::Bool(r.converged)),
        ("steps", Json::num(r.steps as f64)),
        ("linear_iters", Json::num(r.linear_iters as f64)),
        ("res", Json::num(r.res)),
        ("exec", Json::str(r.exec)),
        ("nt", Json::num(r.nt as f64)),
        ("team", Json::num(r.team as f64)),
        ("cache", Json::str(r.cache.slug())),
        ("queue_ms", Json::num(r.queue_ms)),
        ("wall_ms", Json::num(r.wall_ms)),
        ("state_fnv", Json::str(format!("{:016x}", r.state_fnv))),
    ])
    .render()
}

/// Renders an admission rejection as one NDJSON reply line.
pub fn render_reject(r: &Rejected) -> String {
    Json::obj(vec![
        ("ok", Json::Bool(false)),
        ("tenant", Json::str(&r.tenant)),
        ("reason", Json::str(r.reason.slug())),
        ("detail", Json::str(&r.detail)),
        ("queue_depth", Json::num(r.queue_depth as f64)),
    ])
    .render()
}

/// Parses a reply line back into `(ok, object)` — used by the transport
/// tests to validate the protocol strictly.
pub fn parse_reply(line: &str) -> Result<(bool, Json), String> {
    let v = Json::parse(line).map_err(|e| format!("malformed reply: {e}"))?;
    match v.get("ok") {
        Some(Json::Bool(ok)) => Ok((*ok, v)),
        _ => Err("reply missing boolean 'ok'".into()),
    }
}

/// The reject line for a request that failed to parse (no `SolveRequest`
/// exists yet, so the tenant may be unknown).
pub fn bad_request_line(detail: &str) -> String {
    render_reject(&Rejected {
        tenant: String::new(),
        reason: RejectReason::BadRequest,
        detail: detail.to_string(),
        queue_depth: 0,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trips() {
        let mut req = SolveRequest::new("acme", MeshPreset::Small);
        req.rtol = 1e-4;
        req.max_steps = 7;
        req.ilu_lag = 3;
        req.max_linear_iters = 12;
        req.use_limiter = true;
        let back = SolveRequest::parse(&req.render()).unwrap();
        assert_eq!(req, back);
    }

    #[test]
    fn minimal_request_uses_defaults() {
        let req = SolveRequest::parse(r#"{"tenant":"t","mesh":"tiny"}"#).unwrap();
        assert_eq!(req, SolveRequest::new("t", MeshPreset::Tiny));
    }

    #[test]
    fn bad_requests_are_structured_errors() {
        for (line, needle) in [
            ("not json", "malformed"),
            (r#"{"mesh":"tiny"}"#, "tenant"),
            (r#"{"tenant":"t"}"#, "mesh"),
            (r#"{"tenant":"t","mesh":"pyramid"}"#, "unknown mesh"),
            (r#"{"tenant":"t","mesh":"tiny","rtol":0}"#, "rtol"),
            (r#"{"tenant":"t","mesh":"tiny","max_steps":0.5}"#, "max_steps"),
            (r#"{"tenant":"t","mesh":"tiny","ilu_lag":0}"#, "ilu_lag"),
            (r#"{"tenant":"","mesh":"tiny"}"#, "tenant"),
            (r#"{"tenant":"a","mesh":"tiny","tenant":"b"}"#, "duplicate key \"tenant\""),
        ] {
            let err = SolveRequest::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn keys_separate_what_must_not_alias() {
        let a = SolveRequest::new("t", MeshPreset::Tiny);
        let mut b = a.clone();
        b.ilu_fill = 0;
        assert_ne!(a.prep_key(1), b.prep_key(1), "fill shapes the pattern");
        assert_ne!(a.factor_key(), b.factor_key());
        let mut c = a.clone();
        c.dt0 = 4.0;
        assert_eq!(a.prep_key(1), c.prep_key(1), "dt0 is per-solve");
        assert_ne!(a.factor_key(), c.factor_key(), "dt0 shifts the factors");
        assert_ne!(a.prep_key(1), a.prep_key(2), "nt shapes partitions");
    }

    #[test]
    fn tenant_is_not_part_of_the_cache_keys() {
        let a = SolveRequest::new("alice", MeshPreset::Tiny);
        let b = SolveRequest::new("bob", MeshPreset::Tiny);
        assert_eq!(a.prep_key(2), b.prep_key(2));
        assert_eq!(a.factor_key(), b.factor_key());
    }
}
