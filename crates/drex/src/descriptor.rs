//! Request/response descriptors and MMIO register formats (paper §7.2–7.3).

/// Hardware queue depth of the DCC Request Queue (= max batch of 512 users).
pub const REQUEST_QUEUE_DEPTH: usize = 512;

/// Width of the Polling Register in bits (one completion bit per buffer).
pub const POLLING_REGISTER_BITS: usize = 512;

/// A sparse-attention request submitted by the GPU (§7.3.1): user id, layer,
/// and the query vectors of every query head.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestDescriptor {
    /// User ID.
    pub user: u32,
    /// Decoder layer.
    pub layer: u32,
    /// Post-RoPE query vectors, `queries[kv_head][group_member]`.
    pub queries: Vec<Vec<Vec<f32>>>,
}

impl RequestDescriptor {
    /// Wire size in bytes: header + BF16 query payload.
    pub fn bytes(&self) -> usize {
        let payload: usize = self
            .queries
            .iter()
            .flat_map(|g| g.iter())
            .map(|q| q.len() * 2)
            .sum();
        8 + payload
    }

    /// Total query vectors carried.
    pub fn query_count(&self) -> usize {
        self.queries.iter().map(Vec::len).sum()
    }
}

/// One retrieved key: its token index and raw dot-product score
/// (the GPU applies softmax over these together with the dense window).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopHit {
    /// Token position within the user's context.
    pub index: usize,
    /// Raw `q·k` score.
    pub score: f32,
}

/// Response for one request: per KV head, per query-group member, the top-k
/// hits; value vectors are read from the Response Buffer alongside.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResponseDescriptor {
    /// `hits[kv_head][group_member]` sorted by descending score.
    pub hits: Vec<Vec<Vec<TopHit>>>,
    /// Head dimension (for size accounting).
    pub head_dim: usize,
}

impl ResponseDescriptor {
    /// Wire size: per hit, a BF16 value vector + 4 B score + 4 B index.
    pub fn bytes(&self) -> usize {
        let n: usize = self.hits.iter().flat_map(|h| h.iter()).map(Vec::len).sum();
        n * (self.head_dim * 2 + 8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_bytes_counts_bf16_queries() {
        let r = RequestDescriptor {
            user: 1,
            layer: 2,
            queries: vec![vec![vec![0.0; 128]; 4]; 8],
        };
        assert_eq!(r.query_count(), 32);
        assert_eq!(r.bytes(), 8 + 32 * 128 * 2);
    }

    #[test]
    fn response_bytes_scale_with_hits() {
        let mut resp = ResponseDescriptor {
            hits: vec![
                vec![
                    vec![
                        TopHit {
                            index: 0,
                            score: 1.0
                        };
                        10
                    ];
                    2
                ];
                3
            ],
            head_dim: 64,
        };
        assert_eq!(resp.bytes(), 3 * 2 * 10 * (128 + 8));
        resp.hits[0][0].clear();
        assert_eq!(resp.bytes(), (3 * 2 * 10 - 10) * (128 + 8));
    }

    #[test]
    fn queue_constants_match_paper() {
        assert_eq!(REQUEST_QUEUE_DEPTH, 512);
        assert_eq!(POLLING_REGISTER_BITS, 512);
    }
}
