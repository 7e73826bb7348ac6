//! Error types for the GPU LSM public API.

use std::fmt;

/// Result alias for GPU LSM operations.
pub type Result<T> = std::result::Result<T, LsmError>;

/// Errors reported by the GPU LSM public API.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LsmError {
    /// The requested batch size is zero or not supported.
    InvalidBatchSize {
        /// The offending batch size.
        batch_size: usize,
    },
    /// An update batch is larger than the LSM's fixed batch size `b`.
    BatchTooLarge {
        /// Number of operations supplied.
        supplied: usize,
        /// The LSM's fixed batch size.
        batch_size: usize,
    },
    /// An update batch contained no operations.
    EmptyBatch,
    /// A key exceeds the 31-bit key domain (the LSB is reserved for the
    /// tombstone status bit, paper §IV-A).
    KeyOutOfRange {
        /// The offending key.
        key: u32,
    },
    /// The requested shard count is not a power of two in `1..=2³¹`
    /// (key-range shards must divide the 31-bit domain evenly).
    InvalidShardCount {
        /// The offending shard count.
        num_shards: usize,
    },
    /// Learned router boundaries must be strictly increasing keys in
    /// `1..=MAX_KEY` (shard 0 always starts at key 0, so a boundary of 0
    /// would create an empty shard).
    InvalidSplitPoints {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// An online shard split or merge request could not be honoured
    /// (index out of range, too few shards to merge, or no interior key
    /// to split the shard's range at).
    InvalidRebalance {
        /// Human-readable description of the violation.
        reason: String,
    },
    /// The admission applier thread has died — from a panic, from a
    /// spawn failure, or because the service rejected a batch admission had
    /// validated; the queues it was draining will never be applied.  Every
    /// later `submit` / `flush` on the same [`crate::AdmittedLsm`], and a
    /// split or merge whose queue drain lost a batch, reports this instead
    /// of hanging or cascading the panic.
    ApplierPanicked {
        /// Why the applier died: its panic payload (the message when it was
        /// a string), or the error that killed it.
        payload: String,
    },
    /// An `LSM_*` environment variable was set to a value that does not
    /// parse (or parses to a nonsensical setting).  Surfaced by
    /// [`crate::LsmConfig::from_env`] so a typo'd knob cannot silently
    /// change behavior.
    InvalidEnvValue {
        /// The environment variable.
        var: String,
        /// The offending value as found in the environment.
        value: String,
        /// Why it was rejected.
        reason: String,
    },
    /// A durability operation (WAL append, snapshot, recovery load)
    /// failed.  Carries a human-readable context string instead of the
    /// source `io::Error` so the error stays `Clone + Eq` like the rest of
    /// the API.
    Durability {
        /// What failed, including the path and the underlying I/O error.
        context: String,
    },
    /// `submit` waited longer than the configured
    /// [`crate::AdmissionConfig::submit_deadline`] for queue space.  The
    /// batch was **not** admitted (and not logged); a load-shedding caller
    /// can drop it or retry later.
    SubmitTimedOut {
        /// How long the submit waited before giving up, in milliseconds.
        waited_ms: u64,
    },
    /// `flush` waited longer than the configured
    /// [`crate::AdmissionConfig::flush_deadline`] for the queues to drain.
    /// Already-admitted batches remain queued and will still apply.
    FlushTimedOut {
        /// How long the flush waited before giving up, in milliseconds.
        waited_ms: u64,
    },
}

impl fmt::Display for LsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LsmError::InvalidBatchSize { batch_size } => {
                write!(f, "invalid batch size {batch_size}: must be at least 1")
            }
            LsmError::BatchTooLarge {
                supplied,
                batch_size,
            } => write!(
                f,
                "update batch of {supplied} operations exceeds the fixed batch size b = {batch_size}"
            ),
            LsmError::EmptyBatch => write!(f, "update batch contains no operations"),
            LsmError::KeyOutOfRange { key } => write!(
                f,
                "key {key} exceeds the 31-bit key domain (max {})",
                crate::key::MAX_KEY
            ),
            LsmError::InvalidShardCount { num_shards } => write!(
                f,
                "invalid shard count {num_shards}: must be a power of two between 1 and 2^31"
            ),
            LsmError::InvalidSplitPoints { reason } => {
                write!(f, "invalid split points: {reason}")
            }
            LsmError::InvalidRebalance { reason } => {
                write!(f, "invalid shard rebalance request: {reason}")
            }
            LsmError::ApplierPanicked { payload } => {
                write!(f, "admission applier thread died: {payload}")
            }
            LsmError::InvalidEnvValue { var, value, reason } => {
                write!(f, "invalid value {value:?} for environment variable {var}: {reason}")
            }
            LsmError::Durability { context } => {
                write!(f, "durability failure: {context}")
            }
            LsmError::SubmitTimedOut { waited_ms } => {
                write!(
                    f,
                    "submit timed out after {waited_ms} ms waiting for admission queue space"
                )
            }
            LsmError::FlushTimedOut { waited_ms } => {
                write!(
                    f,
                    "flush timed out after {waited_ms} ms waiting for admission queues to drain"
                )
            }
        }
    }
}

impl std::error::Error for LsmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_mention_cause() {
        assert!(LsmError::InvalidBatchSize { batch_size: 0 }
            .to_string()
            .contains("batch size 0"));
        assert!(LsmError::BatchTooLarge {
            supplied: 10,
            batch_size: 4
        }
        .to_string()
        .contains("b = 4"));
        assert!(LsmError::EmptyBatch.to_string().contains("no operations"));
        assert!(LsmError::KeyOutOfRange { key: u32::MAX }
            .to_string()
            .contains("31-bit"));
        assert!(LsmError::InvalidSplitPoints {
            reason: "boundary 0".into()
        }
        .to_string()
        .contains("boundary 0"));
        assert!(LsmError::InvalidRebalance {
            reason: "only one shard".into()
        }
        .to_string()
        .contains("only one shard"));
        assert!(LsmError::ApplierPanicked {
            payload: "boom".into()
        }
        .to_string()
        .contains("boom"));
        let env = LsmError::InvalidEnvValue {
            var: "LSM_ADMIT_QUEUE".into(),
            value: "4o96".into(),
            reason: "invalid digit found in string".into(),
        }
        .to_string();
        assert!(env.contains("LSM_ADMIT_QUEUE") && env.contains("4o96"));
        assert!(LsmError::Durability {
            context: "append wal-0.log: disk full".into()
        }
        .to_string()
        .contains("wal-0.log"));
        assert!(LsmError::SubmitTimedOut { waited_ms: 250 }
            .to_string()
            .contains("250 ms"));
        assert!(LsmError::FlushTimedOut { waited_ms: 1000 }
            .to_string()
            .contains("drain"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(LsmError::EmptyBatch, LsmError::EmptyBatch);
        assert_ne!(
            LsmError::EmptyBatch,
            LsmError::InvalidBatchSize { batch_size: 0 }
        );
    }
}
