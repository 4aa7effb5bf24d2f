//! Functional DReX device model.
//!
//! [`DrexDevice`] stores Key Sign Objects, Key Objects, and Value Objects per
//! `(user, layer, kv_head)` — the paper's per-head vector databases — and
//! executes sparse-attention offloads with the exact filter → score → rank
//! semantics of the hardware, returning both the retrieved top-k results and
//! a timing record from the DCC/NMA model.
//!
//! Keys are stored at BF16 precision, matching the Key Object format; scores
//! are therefore computed on BF16-rounded keys exactly as the NMA would.

use crate::dcc::{DccSim, HeadWork, RequestTiming};
use crate::descriptor::{RequestDescriptor, ResponseDescriptor, TopHit};
use crate::layout::{ObjectFootprint, UserPartition, MAX_CONTEXT_SLICE_KEYS};
use crate::offload::{DrexParams, HeadOffloadSpec};
use crate::response_buffers::ResponseBufferTable;
use longsight_core::{
    filter_block_packed, ItqRotation, RotationTable, ThresholdTable, PFU_BLOCK_KEYS,
};
use longsight_cxl::CxlLink;
use longsight_dram::Geometry;
use longsight_faults::{domain, FaultInjector};
use longsight_tensor::{quantize_bf16_in_place, vecops, FlatVecs, SignArena, TopK};

/// Errors returned by device operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceError {
    /// The device is out of memory capacity.
    CapacityExceeded {
        /// Bytes requested beyond what remains.
        needed: usize,
        /// Bytes remaining.
        available: usize,
    },
    /// Referenced user was never registered.
    UnknownUser(u32),
    /// A key, value or query holds a NaN or an infinity. Such a score has
    /// no rank: its sign, and so its place in a top-k, depends on the
    /// kernel that computed it.
    NonFinite {
        /// `"keys"`, `"values"` or `"queries"`.
        array: &'static str,
        /// The first row of the block holding the non-finite element; for
        /// queries, the KV head whose query group holds it.
        index: usize,
    },
}

impl std::fmt::Display for DeviceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceError::CapacityExceeded { needed, available } => write!(
                f,
                "device capacity exceeded: need {needed} bytes, {available} available"
            ),
            DeviceError::UnknownUser(u) => write!(f, "unknown user id {u}"),
            DeviceError::NonFinite { array, index } => {
                write!(f, "non-finite element in {array} row {index}")
            }
        }
    }
}

impl std::error::Error for DeviceError {}

/// The index of the first row of `rows` holding a NaN or an infinity.
fn first_non_finite(rows: &[Vec<f32>]) -> Option<usize> {
    rows.iter()
        .position(|row| row.iter().any(|x| !x.is_finite()))
}

/// Per-head storage: sign objects, BF16 keys, BF16 values.
#[derive(Debug, Clone)]
struct HeadStore {
    signs: SignArena,
    keys: FlatVecs,
    values: FlatVecs,
}

impl HeadStore {
    fn new(dim: usize) -> Self {
        Self {
            signs: SignArena::new(dim),
            keys: FlatVecs::new(dim),
            values: FlatVecs::new(dim),
        }
    }
}

/// Per-user context storage.
#[derive(Debug, Clone)]
struct UserStore {
    heads: Vec<HeadStore>,
}

/// The functional + timing DReX device.
#[derive(Debug, Clone)]
pub struct DrexDevice {
    geometry: Geometry,
    layers: usize,
    kv_heads: usize,
    head_dim: usize,
    thresholds: ThresholdTable,
    rotations: RotationTable,
    users: Vec<UserStore>,
    dcc: DccSim,
    buffers: ResponseBufferTable,
    bytes_used: usize,
}

/// Result of one offload: the response descriptor plus its timing.
#[derive(Debug, Clone)]
pub struct OffloadOutcome {
    /// Retrieved top-k hits per head per query.
    pub response: ResponseDescriptor,
    /// DCC/NMA/CXL timing.
    pub timing: RequestTiming,
    /// True survivors dropped by injected PFU bitmap corruption (recall
    /// loss); zero on the fault-free path.
    pub false_negatives: usize,
    /// Spurious survivors admitted by injected corruption (scored and
    /// usually ranked out); zero on the fault-free path.
    pub false_positives: usize,
}

impl DrexDevice {
    /// Creates a device for a model shape.
    ///
    /// # Panics
    ///
    /// Panics if the threshold table shape disagrees with `layers`/`kv_heads`.
    pub fn new(
        params: DrexParams,
        link: CxlLink,
        geometry: Geometry,
        thresholds: ThresholdTable,
        rotations: RotationTable,
        head_dim: usize,
    ) -> Self {
        let layers = thresholds.layers();
        let kv_heads = thresholds.kv_heads();
        let packages = geometry.packages;
        Self {
            geometry,
            layers,
            kv_heads,
            head_dim,
            thresholds,
            rotations,
            users: Vec::new(),
            dcc: DccSim::new(params, link, packages),
            buffers: ResponseBufferTable::new(),
            bytes_used: 0,
        }
    }

    /// Registers a new user, allocating its DCC Response Buffer, and returns
    /// its ID.
    ///
    /// # Panics
    ///
    /// Panics beyond 512 concurrent users (the Response Buffer / Polling
    /// Register capacity, §7.2).
    pub fn register_user(&mut self) -> u32 {
        let id = self.users.len() as u32;
        self.buffers
            .map_user(id)
            .expect("at most 512 concurrent users (Response Buffer capacity)");
        self.users.push(UserStore {
            heads: (0..self.layers * self.kv_heads)
                .map(|_| HeadStore::new(self.head_dim))
                .collect(),
        });
        id
    }

    /// The DCC response-buffer table (CAM + Polling Register).
    pub fn response_buffers(&self) -> &ResponseBufferTable {
        &self.buffers
    }

    /// Bytes of device memory in use.
    pub fn bytes_used(&self) -> usize {
        self.bytes_used
    }

    /// Device capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.geometry.total_bytes()
    }

    /// Number of keys stored for `(user, layer, kv_head)`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn stored_keys(&self, user: u32, layer: usize, kv_head: usize) -> usize {
        self.users[user as usize].heads[layer * self.kv_heads + kv_head]
            .keys
            .len()
    }

    /// Reads a stored value vector (the GPU-side response read).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range.
    pub fn value(&self, user: u32, layer: usize, kv_head: usize, index: usize) -> &[f32] {
        self.users[user as usize].heads[layer * self.kv_heads + kv_head]
            .values
            .get(index)
    }

    /// Writes a block of KV pairs for one head (the GPU flushes the staging
    /// window in groups of 128, §6). Keys/values are rounded to BF16; the
    /// Key Sign Object is built from the ITQ-rotated keys.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::CapacityExceeded`] when the write would exceed
    /// the 512 GB device, [`DeviceError::UnknownUser`] for unregistered ids
    /// and [`DeviceError::NonFinite`] for a NaN or infinite key or value. On
    /// error nothing is written.
    ///
    /// # Panics
    ///
    /// Panics if any vector has the wrong dimension or `keys`/`values`
    /// lengths differ.
    pub fn write_kv_block(
        &mut self,
        user: u32,
        layer: usize,
        kv_head: usize,
        keys: &[Vec<f32>],
        values: &[Vec<f32>],
    ) -> Result<(), DeviceError> {
        assert_eq!(keys.len(), values.len(), "key/value count mismatch");
        if user as usize >= self.users.len() {
            return Err(DeviceError::UnknownUser(user));
        }
        for (array, rows) in [("keys", keys), ("values", values)] {
            if let Some(index) = first_non_finite(rows) {
                return Err(DeviceError::NonFinite { array, index });
            }
        }
        let add = ObjectFootprint::for_keys(keys.len(), self.head_dim).total();
        if self.bytes_used + add > self.capacity() {
            return Err(DeviceError::CapacityExceeded {
                needed: add,
                available: self.capacity() - self.bytes_used,
            });
        }
        let rotation = self.rotations.get(layer, kv_head);
        let store = &mut self.users[user as usize].heads[layer * self.kv_heads + kv_head];
        let first = store.keys.len();
        for (k, v) in keys.iter().zip(values) {
            let mut kq = k.clone();
            quantize_bf16_in_place(&mut kq);
            let mut vq = v.clone();
            quantize_bf16_in_place(&mut vq);
            store.keys.push(&kq);
            store.values.push(&vq);
        }
        let block = store.keys.slice(first..store.keys.len());
        rotation.rotate_and_pack(block, &mut store.signs);
        self.bytes_used += add;
        Ok(())
    }

    /// Executes one sparse-attention offload: SCF filter, full-precision
    /// scoring, per-query top-k — over all KV heads of `layer` for `user`.
    ///
    /// `inj` injects PFU bitmap bit-flips into the *functional* filter
    /// decisions: a flipped survivor is dropped before scoring (a false
    /// negative that costs recall), a flipped non-survivor is fetched and
    /// scored (a false positive that costs time and is usually ranked out).
    /// Flip decisions derive from `(inj.seed, user, layer, kv_head, key
    /// index)` alone, so the corrupted result is identical at any thread
    /// count; [`FaultInjector::disabled`] gives the fault-free offload.
    ///
    /// # Errors
    ///
    /// Returns [`DeviceError::UnknownUser`] for unregistered users and
    /// [`DeviceError::NonFinite`] for a NaN or infinite query.
    ///
    /// # Panics
    ///
    /// Panics if `request.queries` does not have one group per KV head, a
    /// query has the wrong dimension, or `k` exceeds the hardware top-k
    /// bound.
    pub fn offload(
        &mut self,
        request: &RequestDescriptor,
        k: usize,
        arrival_ns: f64,
        inj: &FaultInjector,
    ) -> Result<OffloadOutcome, DeviceError> {
        if request.user as usize >= self.users.len() {
            return Err(DeviceError::UnknownUser(request.user));
        }
        assert_eq!(
            request.queries.len(),
            self.kv_heads,
            "one query group per KV head required"
        );
        let non_finite = |g: &Vec<Vec<f32>>| first_non_finite(g).is_some();
        if let Some(index) = request.queries.iter().position(non_finite) {
            return Err(DeviceError::NonFinite {
                array: "queries",
                index,
            });
        }
        let layer = request.layer as usize;
        let user = &self.users[request.user as usize];
        let kv_heads = self.kv_heads;
        let layers = self.layers;
        let head_dim = self.head_dim;
        let geometry = &self.geometry;
        let rotations = &self.rotations;
        let thresholds = &self.thresholds;

        // Each KV head filters/scores/ranks against its own store — on the
        // real device these run on distinct NMAs concurrently. The parallel
        // map keeps results in head order, so response hits and the timing
        // workload are bit-identical to the serial loop.
        let per_head = longsight_exec::deterministic_map(&request.queries, |kv_head, group| {
            let store = &user.heads[layer * kv_heads + kv_head];
            let rotation: &ItqRotation = rotations.get(layer, kv_head);
            let threshold = thresholds.get(layer, kv_head);
            let n = store.keys.len();

            // Injected PFU bitmap corruption: one deterministic draw decides
            // whether this head's bitmap is corrupted, then a fixed per-index
            // draw picks the flipped filter decisions. The flips apply to the
            // shared bitmap, i.e. to every query in the group alike.
            let pfu_stream = longsight_faults::stream(
                domain::PFU,
                request.user as u64,
                layer as u64,
                kv_head as u64,
            );
            let flips: Option<Vec<bool>> = if inj.is_enabled()
                && inj.profile().bitflip_rate > 0.0
                && inj.uniform(pfu_stream, 0) < inj.profile().bitflip_rate
            {
                let frac = inj.profile().bitflip_flip_fraction;
                Some(
                    (0..n)
                        .map(|i| inj.uniform(pfu_stream, 1 + i as u64) < frac)
                        .collect(),
                )
            } else {
                None
            };
            let mut false_negatives = 0usize;
            let mut false_positives = 0usize;

            let mut per_query = Vec::with_capacity(group.len());
            // Union of surviving keys across the group: what the hardware
            // actually fetches (the PFU produces one bitmap per block for
            // the whole query batch).
            let mut union_survivors = 0usize;
            let mut union_mask = vec![false; n];
            for q in group {
                assert_eq!(q.len(), head_dim, "query dimension mismatch");
                let q_signs = rotation.signs(q);
                let mut top = TopK::new(k);
                // One PFU epoch per 128-key block off the packed arena; the
                // fault-injected flips are applied to the resulting bitmap
                // per key, exactly as the per-key scan counted them.
                let mut block = 0usize;
                while block < n {
                    let block_end = (block + PFU_BLOCK_KEYS).min(n);
                    let bitmap =
                        filter_block_packed(&q_signs, &store.signs, block..block_end, threshold);
                    for i in block..block_end {
                        let mut pass = bitmap >> (i - block) & 1 == 1;
                        if let Some(fl) = &flips {
                            if fl[i] {
                                if pass {
                                    false_negatives += 1;
                                } else {
                                    false_positives += 1;
                                }
                                pass = !pass;
                            }
                        }
                        if pass {
                            if !union_mask[i] {
                                union_mask[i] = true;
                                union_survivors += 1;
                            }
                            let s = vecops::dot(q, store.keys.get(i));
                            top.push(s, i);
                        }
                    }
                    block = block_end;
                }
                per_query.push(
                    top.into_sorted_vec()
                        .into_iter()
                        .map(|s| TopHit {
                            index: s.index,
                            score: s.score,
                        })
                        .collect::<Vec<_>>(),
                );
            }

            // Timing workload for this head.
            let plan = UserPartition::plan(
                geometry,
                kv_heads,
                layers,
                head_dim,
                n,
                request.user as usize * kv_heads,
            );
            let slice_packages: Vec<usize> =
                plan.slices[kv_head].iter().map(|s| s.package).collect();
            let work = HeadWork {
                spec: HeadOffloadSpec {
                    context_len: n,
                    head_dim,
                    queries: group.len(),
                    k,
                    survivors: union_survivors,
                },
                slice_packages: if n == 0 { vec![0] } else { slice_packages },
            };
            (per_query, work, false_negatives, false_positives)
        });
        let mut hits = Vec::with_capacity(kv_heads);
        let mut head_work = Vec::with_capacity(kv_heads);
        let mut false_negatives = 0usize;
        let mut false_positives = 0usize;
        for (per_query, work, fneg, fpos) in per_head {
            hits.push(per_query);
            head_work.push(work);
            false_negatives += fneg;
            false_positives += fpos;
        }

        let response = ResponseDescriptor {
            hits,
            head_dim: self.head_dim,
        };
        let timing = self
            .dcc
            .submit(arrival_ns, &head_work, request.bytes(), response.bytes());
        // Completion posted to the user's Response Buffer; the GPU's poll
        // (already folded into `timing.observed_ns`) clears it.
        self.buffers
            .post_completion(request.user)
            .expect("registered users have buffers");
        Ok(OffloadOutcome {
            response,
            timing,
            false_negatives,
            false_positives,
        })
    }

    /// Maximum context slice size (re-exported convenience).
    pub const MAX_SLICE_KEYS: usize = MAX_CONTEXT_SLICE_KEYS;
}

#[cfg(test)]
mod tests {
    use super::*;
    use longsight_tensor::{SignBits, SimRng};

    fn device(threshold: u32) -> DrexDevice {
        DrexDevice::new(
            DrexParams::paper(),
            CxlLink::pcie5_x16(),
            Geometry::drex(),
            ThresholdTable::uniform(1, 2, threshold),
            RotationTable::identity(1, 2, 16),
            16,
        )
    }

    fn fill(dev: &mut DrexDevice, user: u32, n: usize, rng: &mut SimRng) {
        for head in 0..2 {
            let keys: Vec<Vec<f32>> = (0..n).map(|_| rng.normal_vec(16)).collect();
            let vals: Vec<Vec<f32>> = (0..n).map(|_| rng.normal_vec(16)).collect();
            dev.write_kv_block(user, 0, head, &keys, &vals).unwrap();
        }
    }

    #[test]
    fn offload_matches_reference_pipeline() {
        let mut rng = SimRng::seed_from(1);
        let mut dev = device(6);
        let u = dev.register_user();
        fill(&mut dev, u, 300, &mut rng);

        let q = rng.normal_vec(16);
        let req = RequestDescriptor {
            user: u,
            layer: 0,
            queries: vec![vec![q.clone()], vec![q.clone()]],
        };
        let out = dev
            .offload(&req, 8, 0.0, &FaultInjector::disabled())
            .unwrap();

        // Reference: same pipeline by hand for head 0 (BF16 keys, identity
        // rotation, threshold 6).
        let q_signs = SignBits::from_slice(&q);
        let mut expected = TopK::new(8);
        for i in 0..300 {
            // Reconstruct the BF16-rounded key through the device's store.
            let stored = dev.users[u as usize].heads[0].keys.get(i);
            if q_signs.concordance(&SignBits::from_slice(stored)) >= 6 {
                expected.push(vecops::dot(&q, stored), i);
            }
        }
        let want: Vec<usize> = expected.into_sorted_vec().iter().map(|s| s.index).collect();
        let got: Vec<usize> = out.response.hits[0][0].iter().map(|h| h.index).collect();
        assert_eq!(
            got, want,
            "device must match the reference pipeline exactly"
        );
        assert!(out.timing.observed_ns > 0.0);
    }

    #[test]
    fn threshold_zero_retrieves_global_topk() {
        let mut rng = SimRng::seed_from(2);
        let mut dev = device(0);
        let u = dev.register_user();
        fill(&mut dev, u, 200, &mut rng);
        let q = rng.normal_vec(16);
        let req = RequestDescriptor {
            user: u,
            layer: 0,
            queries: vec![vec![q.clone()], vec![q.clone()]],
        };
        let out = dev
            .offload(&req, 200, 0.0, &FaultInjector::disabled())
            .unwrap();
        // k >= n and threshold 0: every key retrieved.
        assert_eq!(out.response.hits[0][0].len(), 200);
        // Scores descending.
        let s: Vec<f32> = out.response.hits[0][0].iter().map(|h| h.score).collect();
        assert!(s.windows(2).all(|w| w[0] >= w[1]));
    }

    #[test]
    fn injected_bitflips_corrupt_retrieval_deterministically() {
        use longsight_faults::{FaultInjector, FaultProfile};
        let mut rng = SimRng::seed_from(4);
        let mut dev = device(6);
        let u = dev.register_user();
        fill(&mut dev, u, 400, &mut rng);
        let q = rng.normal_vec(16);
        let req = RequestDescriptor {
            user: u,
            layer: 0,
            queries: vec![vec![q.clone()], vec![q.clone()]],
        };
        // The disabled injector is the fault-free offload.
        let plain = dev
            .clone()
            .offload(&req, 16, 0.0, &FaultInjector::disabled())
            .unwrap();
        assert_eq!((plain.false_negatives, plain.false_positives), (0, 0));
        // A certain corruption with a large flip fraction changes results
        // and counts both error directions — identically across two runs.
        let inj = FaultInjector::new(
            FaultProfile {
                bitflip_rate: 1.0,
                bitflip_flip_fraction: 0.25,
                ..FaultProfile::disabled()
            },
            21,
        );
        let a = dev.clone().offload(&req, 16, 0.0, &inj).unwrap();
        let b = dev.clone().offload(&req, 16, 0.0, &inj).unwrap();
        assert_eq!(a.response.hits, b.response.hits);
        assert_eq!(
            (a.false_negatives, a.false_positives),
            (b.false_negatives, b.false_positives)
        );
        assert!(a.false_negatives + a.false_positives > 0);
        assert_ne!(
            a.response.hits, plain.response.hits,
            "a 25% flip fraction must perturb the top-k"
        );
    }

    #[test]
    fn unknown_user_is_an_error() {
        let mut dev = device(0);
        let req = RequestDescriptor {
            user: 9,
            layer: 0,
            queries: vec![vec![], vec![]],
        };
        assert_eq!(
            dev.offload(&req, 4, 0.0, &FaultInjector::disabled())
                .unwrap_err(),
            DeviceError::UnknownUser(9)
        );
        assert!(dev.write_kv_block(3, 0, 0, &[], &[]).is_err());
    }

    #[test]
    fn write_kv_block_rejects_non_finite_keys_and_values() {
        let mut dev = device(0);
        let u = dev.register_user();
        let good: Vec<Vec<f32>> = (0..4).map(|i| vec![i as f32; 16]).collect();
        let mut bad = good.clone();
        bad[2][5] = f32::NAN;
        assert_eq!(
            dev.write_kv_block(u, 0, 0, &bad, &good).unwrap_err(),
            DeviceError::NonFinite {
                array: "keys",
                index: 2
            }
        );
        bad[2][5] = f32::NEG_INFINITY;
        assert_eq!(
            dev.write_kv_block(u, 0, 1, &good, &bad).unwrap_err(),
            DeviceError::NonFinite {
                array: "values",
                index: 2
            }
        );
        // A refused block writes nothing.
        assert_eq!(dev.stored_keys(u, 0, 0), 0);
        assert_eq!(dev.stored_keys(u, 0, 1), 0);
        dev.write_kv_block(u, 0, 0, &good, &good).unwrap();
        assert_eq!(dev.stored_keys(u, 0, 0), 4);
    }

    #[test]
    fn offload_rejects_non_finite_queries() {
        let mut rng = SimRng::seed_from(4);
        let mut dev = device(6);
        let u = dev.register_user();
        fill(&mut dev, u, 64, &mut rng);
        let q = rng.normal_vec(16);
        let mut bad = q.clone();
        bad[0] = f32::INFINITY;
        let req = RequestDescriptor {
            user: u,
            layer: 0,
            queries: vec![vec![q.clone()], vec![q, bad]],
        };
        let err = dev
            .offload(&req, 8, 0.0, &FaultInjector::disabled())
            .unwrap_err();
        assert_eq!(
            err,
            DeviceError::NonFinite {
                array: "queries",
                index: 1
            }
        );
        assert_eq!(err.to_string(), "non-finite element in queries row 1");
    }

    #[test]
    fn capacity_accounting_rejects_overflow() {
        let mut dev = DrexDevice::new(
            DrexParams::paper(),
            CxlLink::pcie5_x16(),
            // A tiny 1-bank geometry to make overflow reachable.
            Geometry {
                packages: 1,
                channels: 1,
                banks: 1,
                rows: 2,
                cols: 64,
                col_bytes: 32,
            },
            ThresholdTable::zeros(1, 1),
            RotationTable::identity(1, 1, 16),
            16,
        );
        let u = dev.register_user();
        let keys: Vec<Vec<f32>> = (0..128).map(|_| vec![0.5; 16]).collect();
        let vals = keys.clone();
        // Capacity is 4 KiB; each 128-key block needs 128·(2+32+32) = 8.4 KB.
        let err = dev.write_kv_block(u, 0, 0, &keys, &vals).unwrap_err();
        assert!(matches!(err, DeviceError::CapacityExceeded { .. }));
    }

    #[test]
    fn values_round_trip_at_bf16_precision() {
        let mut dev = device(0);
        let u = dev.register_user();
        let k = vec![vec![0.123456f32; 16]];
        let v = vec![vec![1.0 + 1e-4f32; 16]];
        dev.write_kv_block(u, 0, 0, &k, &v).unwrap();
        // BF16 rounding: 1.0 + 1e-4 → 1.0.
        assert_eq!(dev.value(u, 0, 0, 0)[0], 1.0);
        assert_eq!(dev.stored_keys(u, 0, 0), 1);
    }
}
