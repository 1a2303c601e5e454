//! Slope limiting: Venkatakrishnan's limiter, which the application runs
//! (`OptConfig::use_limiter`, `K = 0.3`).
//!
//! FUN3D's discretization is a *variable-order* flux-difference scheme:
//! second-order reconstruction with the gradients limited so that a
//! reconstructed face value approaches, but does not cross, the range of
//! the neighboring vertex values — Barth & Jespersen's clip made smooth,
//! because the hard clip produces limit cycles in steady solvers. The
//! limiter is a gradient post-pass: the per-vertex, per-variable factor
//! `φ ∈ [0, 1]` is folded directly into the stored gradients, so every
//! flux-kernel variant (scalar, SIMD, threaded) picks it up without code
//! changes — and the kernel-equivalence tests keep holding.

use crate::geom::{grad_slot, EdgeGeom, NodeAos, GRAD_ROW};

/// `∇q_c(v) · r`: the reconstruction slope of variable `c` along `r`.
#[inline]
fn slope(node: &NodeAos, v: usize, c: usize, r: &[f64; 3]) -> f64 {
    node.dq(v, c, 0) * r[0] + node.dq(v, c, 1) * r[1] + node.dq(v, c, 2) * r[2]
}

/// Folds the factors `phi` (4 per vertex) into the gradients.
fn fold(phi: &[f64], node: &mut NodeAos) {
    for (g, phi) in node.grad.chunks_exact_mut(GRAD_ROW).zip(phi.chunks_exact(4)) {
        for (c, &f) in phi.iter().enumerate() {
            if f < 1.0 {
                for d in 0..3 {
                    g[grad_slot(c, d)] *= f;
                }
            }
        }
    }
}

/// Venkatakrishnan's smooth limiter: computes the factors, scales
/// `node.grad` in place and returns them (4 per vertex, for diagnostics
/// and tests). One edge sweep finds each vertex's admissible range from
/// its neighbours; a second finds the strongest limiting any of its
/// midpoint reconstructions needs. `k_eps` controls how much overshoot is
/// tolerated in smooth regions (larger = less limiting); the classic
/// value is O(0.1–5) scaled by the local solution range, and with
/// `k_eps = 0` the reconstructions stay in range up to a `1e-7` floor.
pub(crate) fn apply_venkatakrishnan(geom: &EdgeGeom, node: &mut NodeAos, k_eps: f64) -> Vec<f64> {
    let n = node.n;
    let mut qmin = node.q.clone();
    let mut qmax = node.q.clone();
    for e in geom.edges() {
        let (a, b) = (e[0] as usize, e[1] as usize);
        for c in 0..4 {
            let qa = node.q[a * 4 + c];
            let qb = node.q[b * 4 + c];
            qmin[a * 4 + c] = qmin[a * 4 + c].min(qb);
            qmax[a * 4 + c] = qmax[a * 4 + c].max(qb);
            qmin[b * 4 + c] = qmin[b * 4 + c].min(qa);
            qmax[b * 4 + c] = qmax[b * 4 + c].max(qa);
        }
    }
    // Venkat's smooth ramp for one face: Δ+ is the admissible headroom,
    // Δ− the attempted reconstruction delta (same sign).
    #[inline]
    fn venkat(dplus: f64, dminus: f64, eps2: f64) -> f64 {
        let num = (dplus * dplus + eps2) + 2.0 * dminus * dplus;
        let den = dplus * dplus + 2.0 * dminus * dminus + dminus * dplus + eps2;
        if den.abs() < 1e-300 {
            1.0
        } else {
            (num / den).clamp(0.0, 1.0)
        }
    }
    let mut phi = vec![1.0f64; n * 4];
    for (k, e) in geom.edges().iter().enumerate() {
        let (a, b) = (e[0] as usize, e[1] as usize);
        let r = [geom.rx()[k], geom.ry()[k], geom.rz()[k]];
        for c in 0..4 {
            for (v, sign) in [(a, 0.5), (b, -0.5)] {
                let dq = sign * slope(node, v, c, &r);
                if dq == 0.0 {
                    continue;
                }
                let q0 = node.q[v * 4 + c];
                let range = qmax[v * 4 + c] - qmin[v * 4 + c];
                let eps2 = (k_eps * range) * (k_eps * range) + 1e-14;
                let dplus = if dq > 0.0 {
                    qmax[v * 4 + c] - q0
                } else {
                    qmin[v * 4 + c] - q0
                };
                let f = venkat(dplus.abs(), dq.abs(), eps2);
                if f < phi[v * 4 + c] {
                    phi[v * 4 + c] = f;
                }
            }
        }
    }
    fold(&phi, node);
    phi
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::BcData;
    use crate::edge_loop::Exec;
    use crate::geom::HalfEdges;
    use crate::gradient;
    use fun3d_mesh::generator::MeshPreset;
    use fun3d_mesh::DualMesh;
    use fun3d_simd::Isa;

    fn green_gauss(adj: &HalfEdges, node: &mut NodeAos) {
        gradient::green_gauss(Isa::detect(), Exec::Caller, adj, node);
    }

    fn setup() -> (EdgeGeom, HalfEdges, NodeAos) {
        let mesh = MeshPreset::Tiny.build();
        let dual = DualMesh::build(&mesh);
        let geom = EdgeGeom::build(&mesh, &dual);
        let adj = HalfEdges::build(&geom, &BcData::build(&dual), &dual.vol);
        let node = NodeAos::zeros(mesh.nvertices());
        (geom, adj, node)
    }

    #[test]
    fn smooth_field_untouched() {
        // A gently varying field should not trigger the limiter much:
        // all φ = 1 away from extrema, gradients mostly intact.
        let (geom, adj, mut node) = setup();
        for v in 0..node.n {
            node.q[v * 4] = 0.001 * v as f64;
            node.q[v * 4 + 1] = 1.0;
        }
        green_gauss(&adj, &mut node);
        let before = node.clone();
        let phi = apply_venkatakrishnan(&geom, &mut node, 0.3);
        let untouched = phi.iter().filter(|&&p| p >= 1.0).count();
        assert!(
            untouched * 2 > phi.len(),
            "limiter fired on most of a smooth field: {untouched}/{}",
            phi.len()
        );
        // where φ = 1, gradients are bitwise intact
        for v in 0..node.n {
            for c in 0..4 {
                if phi[v * 4 + c] >= 1.0 {
                    for d in 0..3 {
                        assert_eq!(node.dq(v, c, d), before.dq(v, c, d));
                    }
                }
            }
        }
    }

    #[test]
    fn phi_in_unit_interval() {
        let (geom, adj, mut node) = setup();
        let mut rng = fun3d_util::Rng64::new(17);
        for x in node.q.iter_mut() {
            *x = rng.range_f64(-1.0, 1.0);
        }
        green_gauss(&adj, &mut node);
        let phi = apply_venkatakrishnan(&geom, &mut node, 0.3);
        assert!(phi.iter().all(|&p| (0.0..=1.0).contains(&p)));
        // a rough random field must trigger limiting somewhere
        assert!(phi.iter().any(|&p| p < 1.0));
    }

    #[test]
    fn limited_reconstruction_stays_in_range() {
        // With no smooth-region allowance (`k_eps = 0`) the limiter keeps
        // every midpoint reconstruction inside the neighbour range, up to
        // the `ε = 1e-7` floor that keeps its ramp differentiable.
        let (geom, adj, mut node) = setup();
        let mut rng = fun3d_util::Rng64::new(23);
        for x in node.q.iter_mut() {
            *x = rng.range_f64(-2.0, 2.0);
        }
        green_gauss(&adj, &mut node);
        apply_venkatakrishnan(&geom, &mut node, 0.0);

        let mut qmin = node.q.clone();
        let mut qmax = node.q.clone();
        for e in geom.edges() {
            let (a, b) = (e[0] as usize, e[1] as usize);
            for c in 0..4 {
                qmin[a * 4 + c] = qmin[a * 4 + c].min(node.q[b * 4 + c]);
                qmax[a * 4 + c] = qmax[a * 4 + c].max(node.q[b * 4 + c]);
                qmin[b * 4 + c] = qmin[b * 4 + c].min(node.q[a * 4 + c]);
                qmax[b * 4 + c] = qmax[b * 4 + c].max(node.q[a * 4 + c]);
            }
        }
        for (k, e) in geom.edges().iter().enumerate() {
            let (a, b) = (e[0] as usize, e[1] as usize);
            let r = [geom.rx()[k], geom.ry()[k], geom.rz()[k]];
            for c in 0..4 {
                for (v, sign) in [(a, 0.5), (b, -0.5)] {
                    let q = node.q[v * 4 + c] + sign * slope(&node, v, c, &r);
                    assert!(
                        q >= qmin[v * 4 + c] - 1e-7 && q <= qmax[v * 4 + c] + 1e-7,
                        "edge {k} vertex {v} comp {c}: {q} outside [{}, {}]",
                        qmin[v * 4 + c],
                        qmax[v * 4 + c]
                    );
                }
            }
        }
    }

    #[test]
    fn venkat_smooth_field_barely_limited() {
        let (geom, adj, mut node) = setup();
        for v in 0..node.n {
            node.q[v * 4] = 1e-4 * v as f64;
            node.q[v * 4 + 1] = 1.0;
        }
        green_gauss(&adj, &mut node);
        let phi = apply_venkatakrishnan(&geom, &mut node, 0.3);
        let mean = phi.iter().sum::<f64>() / phi.len() as f64;
        assert!(mean > 0.6, "over-limiting a smooth field: mean φ = {mean}");
    }

    #[test]
    fn constant_field_is_fixed_point() {
        // Constant field, zero gradients: zero reconstruction deltas, so
        // every factor is exactly 1 and every gradient bit stays put.
        let (geom, adj, mut node) = setup();
        node.set_freestream(&[0.3, 1.0, 0.0, 0.0]);
        let phi = apply_venkatakrishnan(&geom, &mut node, 0.3);
        assert!(phi.iter().all(|&p| p == 1.0));
        assert!(node.grad.iter().all(|&g| g == 0.0));
        // Green-Gauss leaves rounding-level gradients (~1e-14) on a
        // constant field: the limiter must not produce NaNs or zero out
        // anything, and may move a factor by rounding only.
        green_gauss(&adj, &mut node);
        let phi = apply_venkatakrishnan(&geom, &mut node, 0.3);
        assert!(phi.iter().all(|&p| p.is_finite() && p >= 1.0 - 1e-12));
        assert!(node.grad.iter().all(|g| g.abs() < 1e-10));
    }
}
