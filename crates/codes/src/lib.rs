//! Quantum LDPC code constructions.
//!
//! This crate builds every code family evaluated in the BP-SF paper:
//!
//! * [`bb`] — bivariate bicycle (BB) codes from Bravyi et al. (Table II):
//!   `[[72,12,6]]`, `[[144,12,12]]` ("gross"), `[[288,12,18]]`,
//! * [`coprime_bb`] — coprime-BB codes from Wang & Mueller (Table III):
//!   `[[126,12,10]]`, `[[154,6,16]]`,
//! * [`gb`] — generalized bicycle codes (Panteleev & Kalachev):
//!   `[[254,28]]`,
//! * [`shp`] — subsystem hypergraph product codes, giving the SHYPS
//!   `[[225,16,8]]` code from the `[15,4,8]` simplex code,
//! * [`hgp`] — ordinary hypergraph product codes (used for extra testing:
//!   the HGP of two repetition codes is the toric code),
//! * [`classical`] — the classical ingredients (repetition, Hamming,
//!   simplex codes).
//!
//! All constructions produce a [`CssCode`], which carries the sparse
//! parity-check matrices `H_X`/`H_Z`, declared parameters, and logical
//! operators computed generically (valid for both stabilizer and subsystem
//! CSS codes).
//!
//! # Examples
//!
//! ```
//! use qldpc_codes::bb;
//!
//! let gross = bb::gross_code(); // [[144, 12, 12]]
//! assert_eq!(gross.n(), 144);
//! assert_eq!(gross.k(), 12);
//! gross.validate().expect("construction is a valid CSS code");
//! ```

#![forbid(unsafe_code)]

pub mod bb;
pub mod circulant;
pub mod classical;
pub mod coprime_bb;
mod css;
pub mod distance;
pub mod gb;
pub mod hgp;
pub mod shp;

pub use css::{CodeError, CssCode, LogicalOps};

/// Returns every named code used in the paper's evaluation, for sweep-style
/// benchmarks: BB 72/144/288, coprime-BB 126/154, GB 254, SHYPS 225.
pub fn paper_codes() -> Vec<CssCode> {
    PAPER_CODE_SLUGS
        .iter()
        .map(|s| build_paper_code(s))
        .collect()
}

/// Stable short names ("slugs") of the paper's evaluation codes, in
/// [`paper_codes`] order — the identifiers campaign specs and report
/// rows use to refer to a construction.
pub const PAPER_CODE_SLUGS: [&str; 7] = [
    "bb72",
    "gross",
    "bb288",
    "coprime126",
    "coprime154",
    "gb254",
    "shyps225",
];

fn build_paper_code(slug: &str) -> CssCode {
    match slug {
        "bb72" => bb::bb72(),
        "gross" => bb::gross_code(),
        "bb288" => bb::bb288(),
        "coprime126" => coprime_bb::coprime126(),
        "coprime154" => coprime_bb::coprime154(),
        "gb254" => gb::gb254(),
        "shyps225" => shp::shyps225(),
        _ => unreachable!("slug list and builder match arms must agree"),
    }
}

/// Builds the paper code registered under `slug` (see
/// [`PAPER_CODE_SLUGS`]), or `None` for an unknown slug.
///
/// The returned [`CssCode`] carries the report metadata — `name()`,
/// `n()`, `k()`, `d()` — that generated tables stamp next to each LER
/// row.
///
/// # Examples
///
/// ```
/// let gross = qldpc_codes::paper_code("gross").unwrap();
/// assert_eq!((gross.n(), gross.k(), gross.d()), (144, 12, Some(12)));
/// assert!(qldpc_codes::paper_code("steane").is_none());
/// ```
pub fn paper_code(slug: &str) -> Option<CssCode> {
    PAPER_CODE_SLUGS
        .iter()
        .find(|s| **s == slug)
        .map(|s| build_paper_code(s))
}
