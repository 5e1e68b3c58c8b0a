//! Seeded inputs. Everything a run sends is generated here, before the
//! first set-up, from `--seed` alone, and request bodies are encoded
//! once: the timed loops only cycle through a bounded set of bytes.

use crate::Workload;
use dpsd_baselines::ExactIndex;
use dpsd_core::geometry::{Point, Rect};
use dpsd_data::{generate_workload, tiger_substitute, PAPER_SHAPES, TIGER_DOMAIN};
use dpsd_serve::workload::SplitMix64;
use serde::Value;

/// Rects per batch request.
const BATCH: usize = 100;
/// Points per ingest request.
const INGEST_BATCH: usize = 4_000;
/// Zipf exponent of the hot rect draws.
const ZIPF_S: f64 = 1.1;
/// Cells per axis of the exact-count index. Counts are exact at any
/// resolution; 64 is the fastest one for the paper shapes.
const INDEX_RESOLUTION: usize = 64;

/// Sizes of one run's inputs.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Points from `tiger_substitute`.
    pub points: usize,
    /// Accuracy rects per paper shape (the paper uses 600).
    pub accuracy_per_shape: usize,
    /// Hot-pool rects per paper shape (4 × 16 = 64).
    pub hot_per_shape: usize,
    /// Pre-encoded Zipf batch bodies that write_mix cycles through.
    pub hot_bodies: usize,
    /// Unique cold rects per paper shape. The pool must exceed the
    /// server's 65,536-entry cache, or cycling through it would hit.
    pub cold_per_shape: usize,
    /// Pre-encoded ingest bodies that the stream traffic cycles through.
    pub ingest_bodies: usize,
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    /// Owner rounds query_cold runs between slices of its query loop.
    pub owner_rounds: usize,
}

impl Scale {
    /// The sizes every reported number is measured at.
    pub const FULL: Scale = Scale {
        points: 1_000_000,
        accuracy_per_shape: 600,
        hot_per_shape: 16,
        hot_bodies: 256,
        cold_per_shape: 20_000,
        ingest_bodies: 8,
        setups: 5,
        owner_rounds: 16,
    };

    /// Small sizes for the benchmark's own tests.
    pub const QUICK: Scale = Scale {
        points: 60_000,
        accuracy_per_shape: 100,
        hot_per_shape: 16,
        hot_bodies: 32,
        cold_per_shape: 500,
        ingest_bodies: 4,
        setups: 1,
        owner_rounds: 1,
    };
}

/// One pre-encoded batch request.
pub struct Body {
    /// `{"rects": [...]}` as sent.
    pub bytes: Vec<u8>,
    /// Indices of its rects in [`Inputs::pool`].
    pub rects: Vec<u32>,
}

/// One pre-encoded ingest request.
pub struct IngestBody {
    /// `{"points": [...]}` as sent.
    pub bytes: Vec<u8>,
    /// Its points, in order.
    pub points: Vec<Point>,
}

/// Everything one run sends, derived from the seed.
pub struct Inputs {
    /// The data owner's points.
    pub points: Vec<Point>,
    /// Accuracy rects: `accuracy_per_shape` per paper shape, placed
    /// uniformly with non-zero exact answers.
    pub accuracy: Vec<Rect>,
    /// Exact answers of `accuracy`.
    pub exact: Vec<f64>,
    /// The 64 hot rects: the first 16 accuracy rects of each shape.
    /// Also the probe set of the correctness gates.
    pub hot: Vec<Rect>,
    /// The rects the batch bodies index: `hot`, or the cold pool.
    pub pool: Vec<Rect>,
    /// Batch bodies the timed traffic cycles through.
    pub bodies: Vec<Body>,
    /// Batch bodies sent to warm up after each set-up.
    pub warmup: Vec<Body>,
    /// The probe batch (`hot` in order) for the gates.
    pub probe: Body,
    /// Ingest bodies the stream traffic cycles through.
    pub ingest: Vec<IngestBody>,
}

/// A sub-seed for input stream `tag`, so no two streams share draws.
pub(crate) fn derive(seed: u64, tag: u64) -> u64 {
    SplitMix64::new(seed ^ tag.wrapping_mul(0x9e37_79b9_7f4a_7c15)).next_u64()
}

fn encode(value: &Value) -> Result<Vec<u8>, String> {
    serde_json::to_string(value)
        .map(String::into_bytes)
        .map_err(|e| format!("encoding a request body: {e}"))
}

fn rect_value(r: &Rect) -> Value {
    Value::Array(
        r.min
            .iter()
            .chain(r.max.iter())
            .map(|&c| Value::Number(c))
            .collect(),
    )
}

/// Encodes a batch body over `pool[indices]`.
fn batch_body(pool: &[Rect], indices: Vec<u32>) -> Result<Body, String> {
    let rects = indices
        .iter()
        .map(|&i| rect_value(&pool[i as usize]))
        .collect();
    let value = Value::Object(vec![("rects".to_string(), Value::Array(rects))]);
    Ok(Body {
        bytes: encode(&value)?,
        rects: indices,
    })
}

fn ingest_body(points: Vec<Point>) -> Result<IngestBody, String> {
    let wire = points
        .iter()
        .map(|p| Value::Array(p.coords.iter().map(|&c| Value::Number(c)).collect()))
        .collect();
    let value = Value::Object(vec![("points".to_string(), Value::Array(wire))]);
    Ok(IngestBody {
        bytes: encode(&value)?,
        points,
    })
}

/// Inverse-CDF sampler of ranks `0..n` with weight `1 / (rank + 1)^s`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += (k as f64).powf(-s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn draw(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

impl Inputs {
    /// Generates the inputs of `workload` for `seed`.
    pub fn generate(workload: Workload, seed: u64, scale: &Scale) -> Result<Inputs, String> {
        let points = tiger_substitute(scale.points, seed);
        let index = ExactIndex::build(&points, TIGER_DOMAIN, INDEX_RESOLUTION)
            .map_err(|e| format!("exact index: {e}"))?;
        let per_shape = match workload {
            Workload::QueryCold => scale.cold_per_shape.max(scale.accuracy_per_shape),
            Workload::WriteMix => scale.accuracy_per_shape,
        };
        let shapes: Vec<_> = PAPER_SHAPES
            .iter()
            .enumerate()
            .map(|(i, &shape)| generate_workload(&index, shape, per_shape, derive(seed, i as u64)))
            .collect();
        let mut accuracy = Vec::new();
        let mut exact = Vec::new();
        let mut hot = Vec::new();
        for w in &shapes {
            accuracy.extend_from_slice(&w.queries[..scale.accuracy_per_shape]);
            exact.extend_from_slice(&w.exact[..scale.accuracy_per_shape]);
            hot.extend_from_slice(&w.queries[..scale.hot_per_shape]);
        }
        let mut rng = SplitMix64::new(derive(seed, 10));
        let (pool, bodies, warmup) = match workload {
            Workload::QueryCold => {
                // Shapes interleaved, so every batch mixes all four.
                let pool: Vec<Rect> = (0..per_shape)
                    .flat_map(|k| shapes.iter().map(move |w| w.queries[k]))
                    .collect();
                let mut bodies: Vec<Body> = (0..pool.len() / BATCH)
                    .map(|b| {
                        batch_body(
                            &pool,
                            (b * BATCH..(b + 1) * BATCH).map(|i| i as u32).collect(),
                        )
                    })
                    .collect::<Result<_, _>>()?;
                // Warm up on the pool's tail: by the time the cycle
                // reaches it again, its entries have been evicted.
                let tail = bodies.len().saturating_sub(4);
                let warmup = bodies.split_off(tail);
                (pool, bodies, warmup)
            }
            Workload::WriteMix => {
                // Ranks map to hot rects through a seeded permutation.
                let mut order: Vec<u32> = (0..hot.len() as u32).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i + 1));
                }
                let zipf = Zipf::new(hot.len(), ZIPF_S);
                let draw = |rng: &mut SplitMix64| {
                    let ids = (0..BATCH).map(|_| order[zipf.draw(rng)]).collect();
                    batch_body(&hot, ids)
                };
                let bodies = (0..scale.hot_bodies)
                    .map(|_| draw(&mut rng))
                    .collect::<Result<_, _>>()?;
                let warmup = (0..8).map(|_| draw(&mut rng)).collect::<Result<_, _>>()?;
                (hot.clone(), bodies, warmup)
            }
        };
        let probe = batch_body(&hot, (0..hot.len() as u32).collect())?;
        let ingest = (0..scale.ingest_bodies)
            .map(|_| {
                ingest_body(
                    (0..INGEST_BATCH)
                        .map(|_| points[rng.below(points.len())])
                        .collect(),
                )
            })
            .collect::<Result<_, _>>()?;
        Ok(Inputs {
            points,
            accuracy,
            exact,
            hot,
            pool,
            bodies,
            warmup,
            probe,
            ingest,
        })
    }
}
