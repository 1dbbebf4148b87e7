//! Declarative campaign specifications.
//!
//! A spec is a small `key = value` text file (comments with `#`)
//! describing a full sweep grid — codes × decoders × noise points ×
//! precisions — plus the adaptive stopping rule. The engine expands it
//! into [`Cell`]s, one per grid point; see `EXPERIMENTS.md` ("Campaigns")
//! for the schema reference and an annotated example.
//!
//! ```text
//! name   = smoke
//! seed   = 2026
//! codes  = gross
//! noise  = code-capacity
//! p      = 0.02, 0.04, 0.06
//! decoders   = bp:40, bp-osd:40:10
//! precisions = f64, f32
//! target_half_width = 0.03
//! max_shots   = 400
//! chunk_shots = 100
//! threads     = 2
//! ```

use bpsf_core::{BpSfConfig, TrialSampling};
use qldpc_bp::{BpConfig, Schedule};
use qldpc_decoder_api::{DecoderFactory, DecoderFamily, Precision};
use qldpc_sim::decoders;
use std::fmt;

/// A spec-file problem, with the line number where it was found (0 for
/// whole-file problems such as missing keys).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based line number, or 0 when the error is not tied to a line.
    pub line: usize,
    /// What is wrong.
    pub message: String,
}

impl SpecError {
    fn at(line: usize, message: impl Into<String>) -> Self {
        Self {
            line,
            message: message.into(),
        }
    }

    fn global(message: impl Into<String>) -> Self {
        Self::at(0, message)
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "spec error: {}", self.message)
        } else {
            write!(f, "spec error (line {}): {}", self.line, self.message)
        }
    }
}

impl std::error::Error for SpecError {}

/// The noise model a campaign sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoiseSpec {
    /// Code-capacity depolarizing noise: `p` is the physical qubit error
    /// rate, syndromes are ideal.
    CodeCapacity,
    /// Circuit-level noise through the memory-experiment detector error
    /// model: `p` is the uniform depolarizing rate of the extraction
    /// circuit.
    CircuitLevel {
        /// Syndrome-extraction rounds per shot.
        rounds: Rounds,
    },
}

/// How many syndrome-extraction rounds a circuit-level cell runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rounds {
    /// A fixed round count.
    Fixed(usize),
    /// Per-code: the code's declared distance `d` (the paper's choice).
    /// Expansion fails for codes without a declared distance.
    Distance,
}

/// One decoder configuration of the sweep, in spec syntax:
///
/// * `bp:ITERS` — plain min-sum BP,
/// * `bp-osd:ITERS:ORDER` — the BP-OSD baseline,
/// * `bp-sf:ITERS:CANDS:WMAX` — exhaustive-trial BP-SF,
/// * `bp-sf:ITERS:CANDS:WMAX:NS` — sampled-trial BP-SF,
///
/// each with an optional `layered-` prefix that runs its BP stage on the
/// layered schedule instead of flooding (`layered-bp-osd:1000:10`). A
/// BP-SF token may end in `;key=value` options, which
/// [`BpSfConfig::set_option`] spells and applies
/// (`bp-sf:50:8:1;rank=flips;workers=2`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecoderSpec {
    /// Plain min-sum BP.
    Bp {
        /// Iteration budget.
        iters: usize,
        /// Layered schedule (`layered-` prefix).
        layered: bool,
    },
    /// The BP-OSD baseline.
    BpOsd {
        /// BP iteration budget.
        iters: usize,
        /// OSD combination-sweep order.
        order: usize,
        /// Layered schedule (`layered-` prefix).
        layered: bool,
    },
    /// The paper's BP-SF decoder.
    BpSf {
        /// Everything the token names but the worker count.
        config: BpSfConfig,
        /// Trial worker threads `P`.
        workers: usize,
    },
}

impl DecoderSpec {
    /// Parses one decoder token; the caller names the token and its line
    /// in the error.
    fn parse(text: &str) -> Result<Self, String> {
        let mut options = text.split(';');
        let mut parts = options.next().unwrap_or_default().split(':');
        let head = parts.next().unwrap_or_default();
        let (layered, base) = match head.strip_prefix("layered-") {
            Some(base) => (true, base),
            None => (false, head),
        };
        let nums: Vec<usize> = parts
            .map(|p| {
                p.trim()
                    .parse()
                    .map_err(|_| format!("'{p}' is not a count"))
            })
            .collect::<Result<_, _>>()?;
        let arity = |want: &[usize]| {
            if want.contains(&nums.len()) {
                Ok(())
            } else {
                let want: Vec<String> = want.iter().map(usize::to_string).collect();
                Err(format!(
                    "'{head}' takes {} colon-separated counts, got {}",
                    want.join(" or "),
                    nums.len()
                ))
            }
        };
        // Counts that must be positive for the decoder to be buildable
        // and useful: iteration budgets, |Φ|, w_max and n_s. A zero here
        // would otherwise surface as a construction panic deep in the
        // engine instead of a line-numbered spec error. (`bp-osd:…:0`
        // stays legal — order 0 is the standard OSD-0 baseline.)
        let positive = |what: &str, v: usize| match v {
            0 => Err(format!("{what} must be positive")),
            v => Ok(v),
        };
        let mut spec = match base {
            "bp" => {
                arity(&[1])?;
                DecoderSpec::Bp {
                    iters: positive("iterations", nums[0])?,
                    layered,
                }
            }
            "bp-osd" => {
                arity(&[2])?;
                DecoderSpec::BpOsd {
                    iters: positive("iterations", nums[0])?,
                    order: nums[1],
                    layered,
                }
            }
            "bp-sf" => {
                arity(&[3, 4])?;
                let iters = positive("iterations", nums[0])?;
                let candidates = positive("candidates", nums[1])?;
                let w_max = positive("w_max", nums[2])?;
                let mut config = match nums.get(3) {
                    None => BpSfConfig::code_capacity(iters, candidates, w_max),
                    Some(&n_s) => {
                        BpSfConfig::circuit_level(iters, candidates, w_max, positive("n_s", n_s)?)
                    }
                };
                if layered {
                    config.initial_bp.schedule = Schedule::Layered;
                }
                DecoderSpec::BpSf { config, workers: 1 }
            }
            _ => return Err(format!(
                "unknown decoder '{head}' (expected bp, bp-osd or bp-sf, optionally prefixed layered-)"
            )),
        };
        let mut seen = Vec::new();
        for option in options {
            let (key, value) = option.split_once('=').unwrap_or((option, ""));
            let (key, value) = (key.trim(), value.trim());
            let fail = |message: String| format!("option '{key}': {message}");
            if seen.contains(&key) {
                return Err(fail("given twice".into()));
            }
            seen.push(key);
            let DecoderSpec::BpSf { config, workers } = &mut spec else {
                return Err(fail(format!("'{head}' takes no options")));
            };
            config.set_option(workers, key, value).map_err(fail)?;
        }
        Ok(spec)
    }

    /// The spec syntax for this decoder (parses back to `self`): options
    /// in canonical order, none at its default, so each decoder has one
    /// spelling and an option-free token is unchanged.
    pub fn spec_syntax(&self) -> String {
        let (layered, base) = match *self {
            DecoderSpec::Bp { iters, layered } => (layered, format!("bp:{iters}")),
            DecoderSpec::BpOsd {
                iters,
                order,
                layered,
            } => (layered, format!("bp-osd:{iters}:{order}")),
            DecoderSpec::BpSf { config, workers } => {
                let n_s = match config.sampling {
                    TrialSampling::Exhaustive => String::new(),
                    TrialSampling::Sampled { per_weight } => format!(":{per_weight}"),
                };
                let mut base = format!(
                    "bp-sf:{}:{}:{}{n_s}",
                    config.initial_bp.max_iters, config.candidates, config.max_flip_weight
                );
                for option in config.options(workers) {
                    base += &format!(";{option}");
                }
                (config.initial_bp.schedule == Schedule::Layered, base)
            }
        };
        format!("{}{base}", if layered { "layered-" } else { "" })
    }

    /// The algorithm family, for report grouping (matches what the built
    /// decoder reports via `SyndromeDecoder::family`).
    pub fn family(&self) -> DecoderFamily {
        match self {
            DecoderSpec::Bp { .. } => DecoderFamily::Bp,
            DecoderSpec::BpOsd { .. } => DecoderFamily::BpOsd,
            DecoderSpec::BpSf { .. } => DecoderFamily::BpSf,
        }
    }

    /// Whether this decoder exists at the given message precision.
    ///
    /// Only plain BP (either schedule) has an `f32` fast path today;
    /// BP-OSD and BP-SF run the reference `f64` arithmetic, so expansion
    /// emits them once regardless of how many precisions the spec lists.
    pub fn supports(&self, precision: Precision) -> bool {
        match self {
            DecoderSpec::Bp { .. } => true,
            DecoderSpec::BpOsd { .. } | DecoderSpec::BpSf { .. } => precision == Precision::F64,
        }
    }

    /// Builds the [`DecoderFactory`] for this decoder at a precision.
    ///
    /// # Panics
    ///
    /// Panics if the precision is unsupported (see [`Self::supports`]) —
    /// expansion filters those combinations out before the engine runs.
    pub fn factory(&self, precision: Precision) -> DecoderFactory {
        assert!(
            self.supports(precision),
            "{} has no {precision} variant",
            self.spec_syntax()
        );
        let bp = |max_iters, layered| BpConfig {
            max_iters,
            schedule: if layered {
                Schedule::Layered
            } else {
                Schedule::Flooding
            },
            ..BpConfig::default()
        };
        match *self {
            DecoderSpec::Bp { iters, layered } => decoders::bp_with(bp(iters, layered), precision),
            DecoderSpec::BpOsd {
                iters,
                order,
                layered,
            } => decoders::bp_osd_with(bp(iters, layered), order),
            DecoderSpec::BpSf { config, workers } => decoders::parallel_bp_sf(config, workers),
        }
    }
}

/// A fully parsed campaign specification.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name — names the output directory and stamps every row.
    pub name: String,
    /// Base RNG seed; every chunk's seed is derived deterministically
    /// from it (see the engine's seeding rule).
    pub seed: u64,
    /// Code slugs from `qldpc_codes::PAPER_CODE_SLUGS`.
    pub codes: Vec<String>,
    /// Noise model.
    pub noise: NoiseSpec,
    /// Physical error rates to sweep.
    pub p_grid: Vec<f64>,
    /// Decoder configurations to sweep.
    pub decoders: Vec<DecoderSpec>,
    /// Message precisions to sweep (decoders without a reduced-precision
    /// variant run once, at `f64`).
    pub precisions: Vec<Precision>,
    /// Stop a cell when the Wilson CI half-width on its LER drops to
    /// this value …
    pub target_half_width: f64,
    /// … at this confidence level,
    pub confidence: f64,
    /// … or when total shots reach this cap, whichever comes first.
    pub max_shots: usize,
    /// Shots per adaptive chunk (the allocation granularity).
    pub chunk_shots: usize,
    /// Worker threads per chunk (`0` = one per available core). Pin this
    /// in the spec for cross-machine reproducibility: the per-thread
    /// seed split makes results a function of the thread count.
    pub threads: usize,
    /// Syndromes per `decode_batch` call within a thread.
    pub batch_size: usize,
}

impl Default for CampaignSpec {
    /// The documented key defaults, with the mandatory fields empty.
    fn default() -> Self {
        Self {
            name: String::new(),
            seed: 2026,
            codes: Vec::new(),
            noise: NoiseSpec::CodeCapacity,
            p_grid: Vec::new(),
            decoders: Vec::new(),
            precisions: vec![Precision::F64],
            target_half_width: 0.02,
            confidence: 0.95,
            max_shots: 10_000,
            chunk_shots: 256,
            threads: 0,
            batch_size: 32,
        }
    }
}

fn parse_list<T, E: fmt::Display>(
    value: &str,
    line: usize,
    what: &str,
    f: impl Fn(&str) -> Result<T, E>,
) -> Result<Vec<T>, SpecError> {
    let items: Vec<&str> = value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    if items.is_empty() {
        return Err(SpecError::at(line, format!("'{what}' must not be empty")));
    }
    // Duplicate entries would expand to grid cells with identical ids,
    // which the resume log could no longer tell apart — reject them like
    // duplicate keys. (`cells()` additionally enforces id uniqueness, so
    // value-level duplicates with different spellings are caught too.)
    for (i, item) in items.iter().enumerate() {
        if items[..i].contains(item) {
            return Err(SpecError::at(
                line,
                format!("duplicate {what} entry '{item}'"),
            ));
        }
    }
    items
        .into_iter()
        .map(|item| f(item).map_err(|e| SpecError::at(line, format!("{what} '{item}': {e}"))))
        .collect()
}

impl CampaignSpec {
    /// Parses a spec from the text of a spec file.
    ///
    /// # Errors
    ///
    /// Returns the first [`SpecError`] found: unknown or duplicate keys,
    /// malformed values, missing mandatory keys (`name`, `codes`,
    /// `noise`, `p`, `decoders`), or out-of-range stopping parameters.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        let mut spec = Self::default();
        let mut seen: Vec<String> = Vec::new();
        let mut rounds: Option<Rounds> = None;
        let mut rounds_line = 0usize;
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let content = raw.split('#').next().unwrap_or_default().trim();
            if content.is_empty() {
                continue;
            }
            let Some((key, value)) = content.split_once('=') else {
                return Err(SpecError::at(
                    line,
                    format!("expected 'key = value', got '{content}'"),
                ));
            };
            let (key, value) = (key.trim(), value.trim());
            if value.is_empty() {
                return Err(SpecError::at(line, format!("'{key}' has no value")));
            }
            if seen.iter().any(|k| k == key) {
                return Err(SpecError::at(line, format!("duplicate key '{key}'")));
            }
            seen.push(key.to_string());
            match key {
                "name" => {
                    // The name becomes a directory under campaigns/, so
                    // restrict it to a safe charset — in particular `.`
                    // is out, or `name = ..` would escape the tree.
                    let safe = |c: char| c.is_ascii_alphanumeric() || c == '-' || c == '_';
                    if !value.chars().all(safe) {
                        return Err(SpecError::at(
                            line,
                            "'name' may only contain ASCII letters, digits, '-' and '_'",
                        ));
                    }
                    spec.name = value.to_string();
                }
                "seed" => {
                    spec.seed = value.parse().map_err(|_| {
                        SpecError::at(line, format!("'seed' is not a u64: {value}"))
                    })?;
                }
                "codes" => {
                    spec.codes = parse_list(value, line, "code", |slug| {
                        if qldpc_codes::PAPER_CODE_SLUGS.contains(&slug) {
                            Ok(slug.to_string())
                        } else {
                            Err(format!(
                                "unknown (expected one of: {})",
                                qldpc_codes::PAPER_CODE_SLUGS.join(", ")
                            ))
                        }
                    })?;
                }
                "noise" => {
                    spec.noise = match value {
                        "code-capacity" => NoiseSpec::CodeCapacity,
                        "circuit-level" => NoiseSpec::CircuitLevel {
                            rounds: Rounds::Distance, // overwritten below if `rounds` was set
                        },
                        other => {
                            return Err(SpecError::at(
                                line,
                                format!(
                                    "unknown noise model '{other}' (expected code-capacity or circuit-level)"
                                ),
                            ))
                        }
                    };
                }
                "rounds" => {
                    rounds_line = line;
                    rounds = Some(if value == "d" {
                        Rounds::Distance
                    } else {
                        match value.parse::<usize>() {
                            Ok(r) if r > 0 => Rounds::Fixed(r),
                            _ => {
                                return Err(SpecError::at(
                                    line,
                                    format!("'rounds' must be a positive count or 'd': {value}"),
                                ))
                            }
                        }
                    });
                }
                "p" => {
                    spec.p_grid = parse_list(value, line, "p", |p| {
                        p.parse::<f64>().map_err(|e| e.to_string()).and_then(|p| {
                            if p > 0.0 && p < 1.0 {
                                Ok(p)
                            } else {
                                Err("must be in (0, 1)".to_string())
                            }
                        })
                    })?;
                }
                "decoders" => {
                    spec.decoders = parse_list(value, line, "decoder", DecoderSpec::parse)?;
                }
                "precisions" => {
                    spec.precisions = parse_list(value, line, "precision", |p| {
                        Precision::ALL
                            .into_iter()
                            .find(|prec| prec.name() == p)
                            .ok_or("expected f64 or f32")
                    })?;
                }
                "target_half_width" => {
                    let v: f64 = value.parse().map_err(|_| {
                        SpecError::at(
                            line,
                            format!("'target_half_width' is not a number: {value}"),
                        )
                    })?;
                    if !(v > 0.0 && v < 0.5) {
                        return Err(SpecError::at(
                            line,
                            "'target_half_width' must be in (0, 0.5)",
                        ));
                    }
                    spec.target_half_width = v;
                }
                "confidence" => {
                    let v: f64 = value.parse().map_err(|_| {
                        SpecError::at(line, format!("'confidence' is not a number: {value}"))
                    })?;
                    if !(v > 0.0 && v < 1.0) {
                        return Err(SpecError::at(line, "'confidence' must be in (0, 1)"));
                    }
                    spec.confidence = v;
                }
                "max_shots" => {
                    spec.max_shots = parse_positive(value, key, line)?;
                }
                "chunk_shots" => {
                    spec.chunk_shots = parse_positive(value, key, line)?;
                }
                "threads" => {
                    spec.threads = value.parse().map_err(|_| {
                        SpecError::at(line, format!("'threads' is not a count: {value}"))
                    })?;
                }
                "batch_size" => {
                    spec.batch_size = parse_positive(value, key, line)?;
                }
                other => {
                    return Err(SpecError::at(line, format!("unknown key '{other}'")));
                }
            }
        }
        if let Some(r) = rounds {
            match &mut spec.noise {
                NoiseSpec::CircuitLevel { rounds } => *rounds = r,
                NoiseSpec::CodeCapacity => {
                    return Err(SpecError::at(
                        rounds_line,
                        "'rounds' only applies to circuit-level noise",
                    ));
                }
            }
        }
        for (key, missing) in [
            ("name", spec.name.is_empty()),
            ("codes", spec.codes.is_empty()),
            ("p", spec.p_grid.is_empty()),
            ("decoders", spec.decoders.is_empty()),
        ] {
            if missing {
                return Err(SpecError::global(format!(
                    "mandatory key '{key}' is missing"
                )));
            }
        }
        if !seen.iter().any(|k| k == "noise") {
            return Err(SpecError::global("mandatory key 'noise' is missing"));
        }
        Ok(spec)
    }

    /// Reads and parses a spec file.
    ///
    /// # Errors
    ///
    /// I/O problems are reported as a [`SpecError`] naming the path.
    pub fn from_file(path: &std::path::Path) -> Result<Self, SpecError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| SpecError::global(format!("cannot read {}: {e}", path.display())))?;
        Self::parse(&text)
    }

    /// The canonical one-line rendering of the spec, used to fingerprint
    /// result logs: two specs expand to the same campaign iff their
    /// canonical forms are equal.
    pub fn canonical(&self) -> String {
        let noise = match self.noise {
            NoiseSpec::CodeCapacity => "code-capacity".to_string(),
            NoiseSpec::CircuitLevel {
                rounds: Rounds::Fixed(r),
            } => format!("circuit-level,rounds={r}"),
            NoiseSpec::CircuitLevel {
                rounds: Rounds::Distance,
            } => "circuit-level,rounds=d".to_string(),
        };
        format!(
            "name={};seed={};codes={};noise={};p={};decoders={};precisions={};target_half_width={};confidence={};max_shots={};chunk_shots={};threads={};batch_size={}",
            self.name,
            self.seed,
            self.codes.join(","),
            noise,
            self.p_grid
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
                .join(","),
            self.decoders
                .iter()
                .map(DecoderSpec::spec_syntax)
                .collect::<Vec<_>>()
                .join(","),
            self.precisions
                .iter()
                .map(|p| p.name())
                .collect::<Vec<_>>()
                .join(","),
            self.target_half_width,
            self.confidence,
            self.max_shots,
            self.chunk_shots,
            self.threads,
            self.batch_size,
        )
    }

    /// FNV-1a hash of [`Self::canonical`], stamped into every log row so
    /// resuming with an edited spec is caught instead of silently mixing
    /// incompatible grids.
    pub fn fingerprint(&self) -> String {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for b in self.canonical().bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        format!("{h:016x}")
    }

    /// Expands the grid into cells, in deterministic order (code → p →
    /// decoder → precision), skipping decoder × precision combinations
    /// the decoder does not support.
    ///
    /// # Errors
    ///
    /// Fails if `rounds = d` is requested for a code without a declared
    /// distance.
    pub fn cells(&self) -> Result<Vec<Cell>, SpecError> {
        let mut cells = Vec::new();
        for slug in &self.codes {
            let code = qldpc_codes::paper_code(slug).expect("slugs are validated at parse time");
            let rounds = match self.noise {
                NoiseSpec::CodeCapacity => 0,
                NoiseSpec::CircuitLevel {
                    rounds: Rounds::Fixed(r),
                } => r,
                NoiseSpec::CircuitLevel {
                    rounds: Rounds::Distance,
                } => code.d().ok_or_else(|| {
                    SpecError::global(format!(
                        "code '{slug}' has no declared distance; use 'rounds = <count>'"
                    ))
                })?,
            };
            for &p in &self.p_grid {
                for decoder in &self.decoders {
                    for &precision in &self.precisions {
                        if !decoder.supports(precision) {
                            continue;
                        }
                        cells.push(Cell {
                            index: cells.len(),
                            code_slug: slug.clone(),
                            p,
                            rounds,
                            decoder: *decoder,
                            precision,
                        });
                    }
                }
            }
        }
        // The resume log is keyed by cell id; two cells sharing one id
        // (e.g. `p = 0.02, 0.020` — distinct spellings, same value)
        // would be conflated on replay, so reject the spec instead.
        let mut ids: Vec<String> = cells.iter().map(Cell::id).collect();
        ids.sort();
        if let Some(dup) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(SpecError::global(format!(
                "the grid contains two identical cells '{}'; remove the duplicate spec entry",
                dup[0]
            )));
        }
        Ok(cells)
    }
}

fn parse_positive(value: &str, key: &str, line: usize) -> Result<usize, SpecError> {
    match value.parse::<usize>() {
        Ok(v) if v > 0 => Ok(v),
        _ => Err(SpecError::at(
            line,
            format!("'{key}' must be a positive count: {value}"),
        )),
    }
}

/// One point of the expanded campaign grid.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    /// Position in the full (unsharded) grid — the input to the
    /// deterministic chunk-seed derivation and to shard selection.
    pub index: usize,
    /// Code slug (`qldpc_codes::paper_code` key).
    pub code_slug: String,
    /// Physical error rate.
    pub p: f64,
    /// Syndrome-extraction rounds (`0` for code-capacity noise).
    pub rounds: usize,
    /// Decoder configuration.
    pub decoder: DecoderSpec,
    /// Message precision.
    pub precision: Precision,
}

impl Cell {
    /// The stable identifier rows use to match cells when a log is
    /// replayed on resume.
    ///
    /// Ids describe the cell's *contents*, not its grid position — but
    /// resume still requires a byte-for-byte unchanged spec (the engine
    /// checks the spec fingerprint), because chunk seeds derive from the
    /// position-dependent [`Cell::index`]: editing the grid would move
    /// indices under unchanged ids and silently change the shot streams.
    pub fn id(&self) -> String {
        let noise = if self.rounds == 0 {
            "cc".to_string()
        } else {
            format!("cl:r{}", self.rounds)
        };
        format!(
            "{}|{}|p={}|{}{}",
            self.code_slug,
            noise,
            self.p,
            self.decoder.spec_syntax(),
            self.precision.label_suffix(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = "\
# A comment line.
name = smoke
seed = 7
codes = gross, bb72   # trailing comment
noise = code-capacity
p = 0.02, 0.04
decoders = bp:40, bp-osd:40:10
precisions = f64, f32
target_half_width = 0.03
max_shots = 400
chunk_shots = 100
threads = 2
";

    #[test]
    fn parses_the_reference_spec() {
        let spec = CampaignSpec::parse(SMOKE).unwrap();
        assert_eq!(spec.name, "smoke");
        assert_eq!(spec.seed, 7);
        assert_eq!(spec.codes, vec!["gross", "bb72"]);
        assert_eq!(spec.noise, NoiseSpec::CodeCapacity);
        assert_eq!(spec.p_grid, vec![0.02, 0.04]);
        assert_eq!(
            spec.decoders,
            vec![
                DecoderSpec::Bp {
                    iters: 40,
                    layered: false
                },
                DecoderSpec::BpOsd {
                    iters: 40,
                    order: 10,
                    layered: false
                }
            ]
        );
        assert_eq!(spec.precisions, vec![Precision::F64, Precision::F32]);
        assert_eq!(spec.target_half_width, 0.03);
        assert_eq!(spec.confidence, 0.95); // default
        assert_eq!((spec.max_shots, spec.chunk_shots), (400, 100));
        assert_eq!(spec.threads, 2);
        assert_eq!(spec.batch_size, 32); // default
    }

    #[test]
    fn expansion_order_and_precision_filtering() {
        let spec = CampaignSpec::parse(SMOKE).unwrap();
        let cells = spec.cells().unwrap();
        // Per code × p: bp at f64 + f32, bp-osd only at f64 ⇒ 3 cells.
        assert_eq!(cells.len(), 2 * 2 * 3);
        assert_eq!(cells[0].id(), "gross|cc|p=0.02|bp:40");
        assert_eq!(cells[1].id(), "gross|cc|p=0.02|bp:40@f32");
        assert_eq!(cells[2].id(), "gross|cc|p=0.02|bp-osd:40:10");
        // Indices are the full-grid positions.
        for (i, c) in cells.iter().enumerate() {
            assert_eq!(c.index, i);
        }
        // Ids are unique.
        let mut ids: Vec<String> = cells.iter().map(Cell::id).collect();
        ids.sort();
        ids.dedup();
        assert_eq!(ids.len(), cells.len());
    }

    #[test]
    fn value_level_duplicate_cells_are_rejected_at_expansion() {
        // "0.1" and "0.10" pass the textual duplicate check but parse to
        // the same value, so the expanded cells would share an id — the
        // resume log could not tell them apart. So do one decoder
        // variant's options in two orders.
        for (grid, cell) in [
            ("p = 0.1, 0.10\ndecoders = bp:1", "p=0.1|bp:1"),
            (
                "p = 0.1\ndecoders = bp-sf:9:8:1;pad=off;rank=llr, bp-sf:9:8:1;rank=llr;pad=off",
                "p=0.1|bp-sf:9:8:1;rank=llr;pad=off",
            ),
        ] {
            let text = format!("name = x\ncodes = gross\nnoise = code-capacity\n{grid}");
            let err = CampaignSpec::parse(&text).unwrap().cells().unwrap_err();
            let needle = format!("identical cells 'gross|cc|{cell}'");
            assert!(err.to_string().contains(&needle), "{err}");
        }
    }

    #[test]
    fn osd_order_zero_is_the_osd0_baseline() {
        // Order 0 is a real configuration (OSD-0) and must stay legal,
        // unlike zero iteration budgets.
        let d = DecoderSpec::parse("bp-osd:100:0").unwrap();
        assert_eq!(
            d,
            DecoderSpec::BpOsd {
                iters: 100,
                order: 0,
                layered: false
            }
        );
    }

    #[test]
    fn decoder_syntax_round_trips() {
        let code = qldpc_codes::paper_code("bb72").unwrap();
        let hz = code.hz();
        let label = |options: &str| format!("BP-SF(BP50,w=1,|Φ|=8{options})");
        // (token, its canonical form, the label of the decoder the
        // factory builds)
        let mut rows: Vec<(String, String, String)> = [
            ("bp:100", "BP100"),
            ("layered-bp:50", "LayeredBP50"),
            ("bp-osd:1000:10", "BP1000-OSD10"),
            ("layered-bp-osd:1000:10", "LayeredBP1000-OSD10"),
            ("bp-sf:100:50:10", "BP-SF(BP100,w=10,|Φ|=50)"),
            ("bp-sf:100:50:10:10", "BP-SF(BP100,w=10,|Φ|=50,ns=10)"),
            (
                "layered-bp-sf:100:50:10",
                "Layered-BP-SF(BP100,w=10,|Φ|=50)",
            ),
            (
                "layered-bp-sf:100:50:10:5",
                "Layered-BP-SF(BP100,w=10,|Φ|=50,ns=5)",
            ),
        ]
        .map(|(text, label)| (text.into(), text.into(), label.into()))
        .into();
        let all =
            "select=min-weight;rank=flips;pad=off;damp=0.8;rule=sum-product;mem=0.3;workers=2";
        // Each key alone reaches the decoder and its label.
        for option in all.split(';').chain(["rank=llr"]) {
            let text = format!("bp-sf:50:8:1;{option}");
            rows.push((text.clone(), text, label(&format!(",{option}"))));
        }
        for (text, canonical, options) in [
            // One spelling per value; options at their defaults are dropped.
            ("bp-sf:50:8:1;damp=1.0", "bp-sf:50:8:1;damp=1", ",damp=1".into()),
            ("bp-sf:50:8:1;mem=0;workers=1", "bp-sf:50:8:1", String::new()),
            // The canonical order is the key table's, whatever the token's.
            (
                "bp-sf:50:8:1;workers=2;mem=0.3;rule=sum-product;damp=0.8;pad=off;rank=flips;select=min-weight",
                &format!("bp-sf:50:8:1;{all}"),
                format!(",{}", all.replace(';', ",")),
            ),
            (
                "bp-sf:50:8:1 ; workers=3 ; rank = llr",
                "bp-sf:50:8:1;rank=llr;workers=3",
                ",rank=llr,workers=3".into(),
            ),
        ] {
            rows.push((text.into(), canonical.into(), label(&options)));
        }
        for (text, canonical, label) in rows {
            let d = DecoderSpec::parse(&text).unwrap();
            assert_eq!(d.spec_syntax(), canonical);
            assert_eq!(DecoderSpec::parse(&canonical).unwrap(), d, "{text}");
            // Only plain BP has an f32 variant, on either schedule.
            assert!(d.supports(Precision::F64));
            assert_eq!(d.supports(Precision::F32), d.family() == DecoderFamily::Bp);
            // Factories build and label consistently with the family.
            let dec = d.factory(Precision::F64)(hz, &vec![0.01; hz.cols()]);
            assert_eq!(dec.label(), label);
            assert_eq!(dec.family(), d.family());
        }
    }

    /// The error of a spec whose only decoder, on line 5, is `token`.
    fn decoder_error(token: &str) -> SpecError {
        let text =
            format!("name = x\ncodes = gross\nnoise = code-capacity\np = 0.1\ndecoders = {token}");
        CampaignSpec::parse(&text).unwrap_err()
    }

    #[test]
    fn decoder_errors_name_the_line_and_the_key() {
        for (text, needle) in [
            (
                "layered-bp-osd:1000",
                "'layered-bp-osd' takes 2 colon-separated counts, got 1",
            ),
            ("layered-bp-osd:0:10", "iterations must be positive"),
            (
                "layered-bp-sf:100:50",
                "'layered-bp-sf' takes 3 or 4 colon-separated counts, got 2",
            ),
            ("layered-bp-sf:100:0:10", "candidates must be positive"),
            ("layered-bp-sf:100:50:10:0", "n_s must be positive"),
            ("layered-osd:10:10", "unknown decoder 'layered-osd'"),
            (
                "layered-layered-bp:10",
                "unknown decoder 'layered-layered-bp'",
            ),
            ("bp:40;workers=2", "option 'workers': 'bp' takes no options"),
            (
                "layered-bp-osd:100:10;pad=off",
                "option 'pad': 'layered-bp-osd' takes no options",
            ),
        ]
        .map(|(text, needle)| (text.to_string(), needle.to_string()))
        .into_iter()
        .chain(
            [
                ("bogus=1", "'bogus': unknown option"),
                ("rank=flips;rank=llr", "'rank': given twice"),
                ("pad=off;pad=off", "'pad': given twice"),
                ("select=first", "'select': 'first' is not min-weight"),
                ("rank", "'rank': '' is not flips or llr"),
                ("pad=on", "'pad': 'on' is not off"),
                ("damp=0", "'damp': '0' is not a factor in (0, 1]"),
                ("damp=1.5", "'damp': '1.5' is not a factor"),
                ("rule=min-sum", "'rule': 'min-sum' is not sum-product"),
                ("mem=1", "'mem': '1' is not a strength in [0, 1)"),
                ("mem=-0.1", "'mem': '-0.1' is not a strength"),
                ("workers=0", "'workers': '0' is not a positive count"),
            ]
            .map(|(options, needle)| {
                (
                    format!("bp-sf:50:8:1;{options}"),
                    format!("option {needle}"),
                )
            }),
        ) {
            let err = decoder_error(&text);
            assert_eq!(err.line, 5, "{text}: {err}");
            assert!(
                err.message.contains(&format!("decoder '{text}': {needle}")),
                "{text}: {err}"
            );
        }
        // OSD-0 stays legal under the prefix, like the flooding head.
        assert!(DecoderSpec::parse("layered-bp-osd:100:0").is_ok());
    }

    #[test]
    fn committed_spec_fingerprints_are_pinned() {
        // Read off `campaign plan` at the commit before the `layered-`
        // heads: logs written by older revisions must keep resuming, and
        // the benchmark's server and client must keep agreeing on the
        // cell id.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for (file, fingerprint, first_cell) in [
            (
                "specs/smoke.campaign",
                "6c7785ec299acb55",
                "gross|cc|p=0.02|bp:40",
            ),
            (
                "benchmark/specs/svc.campaign",
                "ba1242d1ceb75512",
                "gross|cc|p=0.03|bp:40",
            ),
        ] {
            let spec = CampaignSpec::from_file(&std::path::Path::new(root).join(file)).unwrap();
            assert_eq!(spec.fingerprint(), fingerprint, "{file}");
            assert_eq!(spec.cells().unwrap()[0].id(), first_cell, "{file}");
        }
    }

    #[test]
    fn circuit_level_rounds_variants() {
        let base = "name = x\ncodes = bb72\nnoise = circuit-level\np = 0.001\ndecoders = bp:20\n";
        // Default rounds: the code distance.
        let spec = CampaignSpec::parse(base).unwrap();
        let cells = spec.cells().unwrap();
        assert_eq!(cells[0].rounds, 6); // bb72 has d = 6
        assert_eq!(cells[0].id(), "bb72|cl:r6|p=0.001|bp:20");
        // Fixed rounds override.
        let spec = CampaignSpec::parse(&format!("{base}rounds = 3\n")).unwrap();
        assert_eq!(spec.cells().unwrap()[0].rounds, 3);
    }

    #[test]
    fn rejects_malformed_specs() {
        let cases: &[(&str, &str)] = &[
            ("codes = gross\nnoise = code-capacity\np = 0.1\ndecoders = bp:1", "'name' is missing"),
            ("name = x\nnoise = code-capacity\np = 0.1\ndecoders = bp:1", "'codes' is missing"),
            ("name = x\ncodes = gross\np = 0.1\ndecoders = bp:1", "'noise' is missing"),
            ("name = x\ncodes = steane\nnoise = code-capacity\np = 0.1\ndecoders = bp:1", "unknown"),
            ("name = x\ncodes = gross\nnoise = code-capacity\np = 1.5\ndecoders = bp:1", "(0, 1)"),
            ("name = x\ncodes = gross\nnoise = code-capacity\np = 0.1\ndecoders = bp", "counts"),
            ("name = x\ncodes = gross\nnoise = code-capacity\np = 0.1\ndecoders = osd:1", "unknown decoder"),
            ("name = x\ncodes = gross\nnoise = code-capacity\np = 0.1\ndecoders = bp:1\nrounds = 2", "only applies"),
            ("name = x\nname = y\ncodes = gross\nnoise = code-capacity\np = 0.1\ndecoders = bp:1", "duplicate"),
            ("name = x\ncodes = gross\nnoise = code-capacity\np = 0.1\ndecoders = bp:1\nbogus = 1", "unknown key"),
            ("name = x\ncodes = gross\nnoise = code-capacity\np = 0.1\ndecoders = bp:1\nchunk_shots = 0", "positive"),
            ("name = a b\ncodes = gross\nnoise = code-capacity\np = 0.1\ndecoders = bp:1", "ASCII letters"),
            ("name = ..\ncodes = gross\nnoise = code-capacity\np = 0.1\ndecoders = bp:1", "ASCII letters"),
            ("name = x\ncodes = gross\nnoise = code-capacity\np = 0.1\ndecoders = bp:1\nprecisions = f16", "f64 or f32"),
            ("name = x\ncodes = gross\nnoise = code-capacity\np = 0.1\ndecoders = bp:0", "must be positive"),
            ("name = x\ncodes = gross\nnoise = code-capacity\np = 0.1\ndecoders = bp-sf:10:0:2", "candidates must be positive"),
            ("name = x\ncodes = gross\nnoise = code-capacity\np = 0.1\ndecoders = bp-sf:10:8:2:0", "n_s must be positive"),
            ("name = x\ncodes = gross, gross\nnoise = code-capacity\np = 0.1\ndecoders = bp:1", "duplicate code entry"),
            ("name = x\ncodes = gross\nnoise = circuit-level\nrounds = 0\np = 0.1\ndecoders = bp:1", "positive count or 'd'"),
            ("name = x\ncodes = gross\nnoise = code-capacity\np = 0.1, 0.1\ndecoders = bp:1", "duplicate p entry"),
        ];
        for (text, needle) in cases {
            let err = CampaignSpec::parse(text).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "spec {text:?} gave '{err}', expected to contain '{needle}'"
            );
        }
    }

    #[test]
    fn fingerprint_tracks_the_grid() {
        let a = CampaignSpec::parse(SMOKE).unwrap();
        let b = CampaignSpec::parse(SMOKE).unwrap();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = a.clone();
        c.seed += 1;
        assert_ne!(a.fingerprint(), c.fingerprint());
        let mut d = a.clone();
        d.p_grid.push(0.08);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }
}
