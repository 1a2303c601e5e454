//! Incompressible Euler physics with artificial compressibility.
//!
//! State per vertex: `q = (p, u, v, w)` — pressure and Cartesian velocity.
//! Chorin's artificial compressibility couples pressure to the velocity
//! divergence through the parameter β, giving the hyperbolic system whose
//! inviscid flux through an (area-weighted) face normal `n` is paper
//! Eq. 1. The face eigensystem `{Θ, Θ, Θ+c, Θ−c}` with
//! `c = √(Θ² + βS²)` drives the Roe-type flux-difference dissipation:
//! `|A|` is evaluated as the quadratic matrix polynomial that interpolates
//! `|λ|` on the three distinct eigenvalues (exact for the diagonalizable
//! flux Jacobian, and cheap: three 4×4 matvecs per face).

/// Free-stream / solver physical parameters.
#[derive(Clone, Copy, Debug)]
pub struct FlowConditions {
    /// Artificial compressibility parameter β (O(u∞²) is typical).
    pub beta: f64,
    /// Free-stream state `(p, u, v, w)`.
    pub qinf: [f64; 4],
}

impl Default for FlowConditions {
    fn default() -> Self {
        FlowConditions {
            beta: 1.0,
            // Unit axial flow, zero gauge pressure.
            qinf: [0.0, 1.0, 0.0, 0.0],
        }
    }
}

/// Inviscid flux through area-weighted normal `n`:
/// `F = (βΘ, uΘ + nₓp, vΘ + n_y p, wΘ + n_z p)`, `Θ = n·(u,v,w)`.
#[inline]
pub(crate) fn flux(q: &[f64; 4], n: &[f64; 3], beta: f64) -> [f64; 4] {
    let theta = n[0] * q[1] + n[1] * q[2] + n[2] * q[3];
    [
        beta * theta,
        q[1] * theta + n[0] * q[0],
        q[2] * theta + n[1] * q[0],
        q[3] * theta + n[2] * q[0],
    ]
}

/// The flux Jacobian `A = ∂(F·n)/∂q` at state `q` (row-major 4×4).
#[inline]
pub(crate) fn flux_jacobian(q: &[f64; 4], n: &[f64; 3], beta: f64) -> [f64; 16] {
    let theta = n[0] * q[1] + n[1] * q[2] + n[2] * q[3];
    [
        0.0,
        beta * n[0],
        beta * n[1],
        beta * n[2],
        n[0],
        theta + q[1] * n[0],
        q[1] * n[1],
        q[1] * n[2],
        n[1],
        q[2] * n[0],
        theta + q[2] * n[1],
        q[2] * n[2],
        n[2],
        q[3] * n[0],
        q[3] * n[1],
        theta + q[3] * n[2],
    ]
}

/// Face speeds: returns `(Θ, c)` with `c = sqrt(Θ² + β S²)`, `S = |n|`.
#[inline]
pub(crate) fn wave_speeds(q: &[f64; 4], n: &[f64; 3], beta: f64) -> (f64, f64) {
    let theta = n[0] * q[1] + n[1] * q[2] + n[2] * q[3];
    let s2 = n[0] * n[0] + n[1] * n[1] + n[2] * n[2];
    (theta, (theta * theta + beta * s2).sqrt())
}

/// Spectral radius of the face Jacobian: `|Θ| + c`.
#[inline]
pub(crate) fn spectral_radius(q: &[f64; 4], n: &[f64; 3], beta: f64) -> f64 {
    let (theta, c) = wave_speeds(q, n, beta);
    theta.abs() + c
}

/// Coefficients `(a, b, d)` of the quadratic `p(x) = a x² + b x + d`
/// interpolating `|x|` at the three distinct eigenvalues
/// `{Θ, Θ+c, Θ−c}`. Because the Jacobian is diagonalizable with exactly
/// these eigenvalues, `|A| = p(A)` exactly.
#[inline]
pub(crate) fn abs_poly_coeffs(theta: f64, c: f64) -> (f64, f64, f64) {
    // Lagrange interpolation of f(x)=|x| at m1=Θ, m2=Θ+c, m3=Θ−c.
    let (m1, m2, m3) = (theta, theta + c, theta - c);
    let (f1, f2, f3) = (m1.abs(), m2.abs(), m3.abs());
    // denominators: (m1-m2)(m1-m3) = (-c)(c) = -c²; (m2-m1)(m2-m3) = c·2c;
    // (m3-m1)(m3-m2) = (-c)(-2c) = 2c².
    let c2 = c * c;
    let l1 = f1 / (-c2);
    let l2 = f2 / (2.0 * c2);
    let l3 = f3 / (2.0 * c2);
    // p(x) = l1 (x-m2)(x-m3) + l2 (x-m1)(x-m3) + l3 (x-m1)(x-m2)
    let a = l1 + l2 + l3;
    let b = -(l1 * (m2 + m3) + l2 * (m1 + m3) + l3 * (m1 + m2));
    let d = l1 * m2 * m3 + l2 * m1 * m3 + l3 * m1 * m2;
    (a, b, d)
}

/// Roe-type flux-difference interface flux:
/// `F* = ½(F(qL) + F(qR)) − ½|A(q̄)|(qR − qL)` with `q̄ = ½(qL+qR)` and
/// `|A|` evaluated as the interpolating polynomial (three matvecs).
#[inline]
pub fn roe_flux(ql: &[f64; 4], qr: &[f64; 4], n: &[f64; 3], beta: f64) -> [f64; 4] {
    let fl = flux(ql, n, beta);
    let fr = flux(qr, n, beta);
    let qm = [
        0.5 * (ql[0] + qr[0]),
        0.5 * (ql[1] + qr[1]),
        0.5 * (ql[2] + qr[2]),
        0.5 * (ql[3] + qr[3]),
    ];
    let a = flux_jacobian(&qm, n, beta);
    let (theta, c) = wave_speeds(&qm, n, beta);
    let (pa, pb, pd) = abs_poly_coeffs(theta, c);
    let dq = [qr[0] - ql[0], qr[1] - ql[1], qr[2] - ql[2], qr[3] - ql[3]];
    // |A| dq = pa·A(A dq) + pb·A dq + pd·dq
    let adq = matvec4(&a, &dq);
    let aadq = matvec4(&a, &adq);
    let mut out = [0.0; 4];
    for k in 0..4 {
        let diss = pa * aadq[k] + pb * adq[k] + pd * dq[k];
        out[k] = 0.5 * (fl[k] + fr[k]) - 0.5 * diss;
    }
    out
}

#[inline]
fn matvec4(a: &[f64; 16], x: &[f64; 4]) -> [f64; 4] {
    let mut y = [0.0; 4];
    for r in 0..4 {
        y[r] = a[r * 4] * x[0] + a[r * 4 + 1] * x[1] + a[r * 4 + 2] * x[2] + a[r * 4 + 3] * x[3];
    }
    y
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: [f64; 3] = [0.3, -0.5, 0.81];

    #[test]
    fn flux_consistency_with_jacobian() {
        // A is the exact derivative of F: finite-difference check.
        let q = [0.4, 0.9, -0.2, 0.3];
        let beta = 1.3;
        let a = flux_jacobian(&q, &N, beta);
        let f0 = flux(&q, &N, beta);
        let h = 1e-7;
        for j in 0..4 {
            let mut qp = q;
            qp[j] += h;
            let fp = flux(&qp, &N, beta);
            for i in 0..4 {
                let fd = (fp[i] - f0[i]) / h;
                assert!(
                    (fd - a[i * 4 + j]).abs() < 1e-5 * (1.0 + a[i * 4 + j].abs()),
                    "dF{i}/dq{j}: fd {fd} vs analytic {}",
                    a[i * 4 + j]
                );
            }
        }
    }

    #[test]
    fn roe_flux_is_consistent() {
        // F*(q, q, n) = F(q, n): zero dissipation at equal states.
        let q = [0.1, 1.0, 0.2, -0.4];
        let beta = 0.8;
        let f = flux(&q, &N, beta);
        let fstar = roe_flux(&q, &q, &N, beta);
        for k in 0..4 {
            assert!((f[k] - fstar[k]).abs() < 1e-13, "comp {k}");
        }
    }

    #[test]
    fn roe_flux_antisymmetric_in_normal() {
        // F*(qL,qR,n) = −F*(qR,qL,−n): conservation across the face.
        let ql = [0.2, 0.8, -0.1, 0.05];
        let qr = [0.15, 1.1, 0.0, -0.2];
        let beta = 1.0;
        let f1 = roe_flux(&ql, &qr, &N, beta);
        let neg = [-N[0], -N[1], -N[2]];
        let f2 = roe_flux(&qr, &ql, &neg, beta);
        for k in 0..4 {
            assert!((f1[k] + f2[k]).abs() < 1e-12, "comp {k}: {} vs {}", f1[k], f2[k]);
        }
    }

    #[test]
    fn abs_poly_interpolates_abs() {
        for (theta, c) in [(0.5, 1.2), (-0.7, 0.9), (0.0, 1.0), (2.0, 2.3)] {
            let (a, b, d) = abs_poly_coeffs(theta, c);
            for m in [theta, theta + c, theta - c] {
                let p = a * m * m + b * m + d;
                assert!(
                    (p - m.abs()).abs() < 1e-12,
                    "p({m}) = {p}, |m| = {}",
                    m.abs()
                );
            }
        }
    }

    #[test]
    fn dissipation_is_positive_semidefinite_effect() {
        // Upwind property: for supersonic-like Θ >> c impossible here
        // (c > |Θ|), but check the dissipation damps a jump: the Roe flux
        // of a jump should lie "between" the one-sided fluxes along the
        // jump direction. Weak sanity: interface flux differs from the
        // central average in the direction opposing the jump.
        let ql = [0.0, 1.0, 0.0, 0.0];
        let qr = [1.0, 1.0, 0.0, 0.0]; // pressure jump
        let beta = 1.0;
        let n = [1.0, 0.0, 0.0];
        let f = roe_flux(&ql, &qr, &n, beta);
        let central = {
            let fl = flux(&ql, &n, beta);
            let fr = flux(&qr, &n, beta);
            [
                0.5 * (fl[0] + fr[0]),
                0.5 * (fl[1] + fr[1]),
                0.5 * (fl[2] + fr[2]),
                0.5 * (fl[3] + fr[3]),
            ]
        };
        // mass flux must be reduced relative to central when pressure
        // rises downstream (dissipation opposes the jump).
        assert!(f[0] < central[0]);
    }

    #[test]
    fn spectral_radius_bounds_eigenvalues() {
        let q = [0.3, 2.0, -1.0, 0.5];
        let beta = 1.7;
        let (theta, c) = wave_speeds(&q, &N, beta);
        let rho = spectral_radius(&q, &N, beta);
        for m in [theta, theta + c, theta - c] {
            assert!(m.abs() <= rho + 1e-12);
        }
        assert!(c > theta.abs(), "c = sqrt(Θ²+βS²) must exceed |Θ|");
    }

    #[test]
    fn free_stream_defaults() {
        let fc = FlowConditions::default();
        assert_eq!(fc.qinf[1], 1.0);
        assert!(fc.beta > 0.0);
    }
}
