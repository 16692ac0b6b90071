//! The output oracle: every reply is checked against the reference the
//! workload computed before timing started.
//!
//! * `cpu` `Spmv` must be bit-identical to a local `CsrMatrix::spmv` of
//!   the connection's current matrix version.
//! * Engine `Spmv` is held to `chason_conformance::ulp::compare` against
//!   that same CSR product.
//! * `Solve` must be bit-identical to the local solver run (solution,
//!   residual and iteration count).
//! * `Update` must ack the next version with the expected `nnz`.

use chason_conformance::ulp::{compare, UlpTolerance};
use chason_serve::proto::Reply;
use std::sync::Arc;

/// A reference `Solve` outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveWant {
    /// Final iterate.
    pub solution: Vec<f32>,
    /// Iterations performed.
    pub iterations: u64,
    /// Final relative residual.
    pub residual: f64,
    /// Whether the tolerance was reached.
    pub converged: bool,
}

/// What a reply must say.
#[derive(Debug, Clone)]
pub enum Expect {
    /// A `Vector` equal to `want` (bitwise when `scales` is `None`, within
    /// the ULP tolerance of each row's `scales` entry otherwise).
    Vector {
        /// The local CSR product.
        want: Arc<Vec<f32>>,
        /// Row condition scales for the ULP oracle (engine replies).
        scales: Option<Arc<Vec<f32>>>,
        /// Modeled flops of the request (`2·nnz` on engines, else 0).
        sim_flops: u64,
    },
    /// A `Solved` bit-identical to the reference.
    Solved(Arc<SolveWant>),
    /// An `Updated` carrying the next version and this `nnz`.
    Updated {
        /// Non-zeros after the update.
        nnz: u64,
    },
    /// Any `Stats` snapshot.
    Stats,
}

/// The oracle's ruling on one reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// The reply is right.
    Pass,
    /// The server shed the request; resend after the hint.
    Busy(u32),
    /// The reply is wrong or an error; the reason.
    Fail(String),
}

fn bits_equal(want: &[f32], got: &[f32], scale: f32) -> bool {
    want.len() == got.len()
        && want
            .iter()
            .zip(got)
            .all(|(&w, &g)| (w * scale).to_bits() == g.to_bits())
}

/// Checks `reply` against `expect`, with vectors scaled by `scale` (a
/// power of two, so the scaled reference is exact) and `version` the
/// version an `Updated` must carry.
pub fn check(reply: &Reply, expect: &Expect, scale: f32, version: u64) -> Verdict {
    match (reply, expect) {
        (Reply::Busy { retry_after_ms }, _) => Verdict::Busy(*retry_after_ms),
        (Reply::Error { code, message }, _) => Verdict::Fail(format!("{code:?}: {message}")),
        (Reply::Vector { y, .. }, Expect::Vector { want, scales, .. }) => {
            let ok = match scales {
                None => bits_equal(want, y, scale),
                Some(scales) => {
                    let want: Vec<f32> = want.iter().map(|&w| w * scale).collect();
                    let scales: Vec<f32> = scales.iter().map(|&s| s * scale).collect();
                    compare(&want, y, &scales, &UlpTolerance::default()).is_empty()
                }
            };
            if ok {
                Verdict::Pass
            } else {
                Verdict::Fail("Spmv result differs from the reference".to_string())
            }
        }
        (
            Reply::Solved {
                solution,
                iterations,
                residual,
                converged,
                ..
            },
            Expect::Solved(want),
        ) => {
            if *iterations != want.iterations
                || *converged != want.converged
                || residual.to_bits() != want.residual.to_bits()
                || !bits_equal(&want.solution, solution, scale)
            {
                Verdict::Fail(format!(
                    "Solve differs from the reference ({iterations} vs {} iterations)",
                    want.iterations
                ))
            } else {
                Verdict::Pass
            }
        }
        (
            Reply::Updated {
                version: v, nnz, ..
            },
            Expect::Updated { nnz: want_nnz },
        ) => {
            if *v == version && nnz == want_nnz {
                Verdict::Pass
            } else {
                Verdict::Fail(format!(
                    "Update acked version {v} nnz {nnz}, expected {version} / {want_nnz}"
                ))
            }
        }
        (Reply::Stats(_), Expect::Stats) => Verdict::Pass,
        (other, _) => Verdict::Fail(format!("unexpected reply variant: {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vector(y: Vec<f32>) -> Reply {
        Reply::Vector {
            y,
            service_micros: 1,
            simulated_nanos: 0,
        }
    }

    #[test]
    fn a_one_bit_flip_fails_the_bitwise_oracle() {
        let want = vec![1.5f32, -2.25, 3.0];
        let expect = Expect::Vector {
            want: Arc::new(want.clone()),
            scales: None,
            sim_flops: 0,
        };
        assert_eq!(check(&vector(want.clone()), &expect, 1.0, 0), Verdict::Pass);
        let mut corrupt = want;
        corrupt[1] = f32::from_bits(corrupt[1].to_bits() ^ 1);
        assert!(matches!(
            check(&vector(corrupt), &expect, 1.0, 0),
            Verdict::Fail(_)
        ));
    }

    #[test]
    fn scaled_replies_pass_against_scaled_references() {
        let want = vec![1.5f32, -2.25, 3.0];
        let expect = Expect::Vector {
            want: Arc::new(want.clone()),
            scales: Some(Arc::new(vec![2.0; 3])),
            sim_flops: 6,
        };
        let scaled: Vec<f32> = want.iter().map(|v| v * 0.25).collect();
        assert_eq!(check(&vector(scaled), &expect, 0.25, 0), Verdict::Pass);
        assert!(matches!(
            check(&vector(vec![9.0; 3]), &expect, 0.25, 0),
            Verdict::Fail(_)
        ));
    }

    #[test]
    fn solves_must_match_iterations_and_bits() {
        let want = Arc::new(SolveWant {
            solution: vec![0.5, 0.25],
            iterations: 7,
            residual: 1e-7,
            converged: true,
        });
        let reply = |iterations: u64, solution: Vec<f32>| Reply::Solved {
            solution,
            iterations,
            residual: 1e-7,
            converged: true,
            service_micros: 1,
            simulated_nanos: 0,
        };
        let expect = Expect::Solved(want);
        assert_eq!(
            check(&reply(7, vec![0.5, 0.25]), &expect, 1.0, 0),
            Verdict::Pass
        );
        assert!(matches!(
            check(&reply(8, vec![0.5, 0.25]), &expect, 1.0, 0),
            Verdict::Fail(_)
        ));
        assert!(matches!(
            check(&reply(7, vec![0.5, 0.250_000_03]), &expect, 1.0, 0),
            Verdict::Fail(_)
        ));
    }

    #[test]
    fn updates_must_ack_the_next_version() {
        let expect = Expect::Updated { nnz: 10 };
        let reply = |version| Reply::Updated {
            version,
            nnz: 10,
            plans_spliced: 1,
            windows_replanned: 1,
            windows_total: 1,
        };
        assert_eq!(check(&reply(3), &expect, 1.0, 3), Verdict::Pass);
        assert!(matches!(
            check(&reply(2), &expect, 1.0, 3),
            Verdict::Fail(_)
        ));
    }

    #[test]
    fn busy_asks_for_a_resend_and_errors_fail() {
        let expect = Expect::Stats;
        assert_eq!(
            check(&Reply::Busy { retry_after_ms: 5 }, &expect, 1.0, 0),
            Verdict::Busy(5)
        );
        let error = Reply::Error {
            code: chason_serve::proto::ErrorCode::Internal,
            message: "boom".to_string(),
        };
        assert!(matches!(check(&error, &expect, 1.0, 0), Verdict::Fail(_)));
    }
}
