//! Typed configuration for the LSM stack.
//!
//! [`LsmConfig`] sets the construction-time knobs of [`crate::GpuLsm`],
//! [`crate::ShardedLsm`] and [`crate::AdmittedLsm`], plus the thresholds
//! for online shard rebalancing ([`RebalanceConfig`]).  Each public
//! constructor resolves every field once, when the structure is built, and
//! the structure keeps the result:
//!
//! 1. a field set on the config wins;
//! 2. otherwise its `LSM_*` environment variable, read strictly by
//!    [`LsmConfig::from_env`], the stack's only environment reader;
//! 3. otherwise a constant default.
//!
//! Shard rebuilds, crash recovery and cleanup reuse the stored values and
//! never read the environment again.  Every knob is per instance except
//! `par_cutoff`: the worker pool is shared by the whole process, so that
//! field installs a process-wide cutoff (see
//! [`LsmConfig::apply_process_overrides`]).

use std::time::Duration;

use crate::admission::AdmissionConfig;
use crate::error::{LsmError, Result};
use crate::wal::{DegradeMode, DurabilityConfig, RetryPolicy};

/// Thresholds governing online shard split/merge (see
/// [`crate::ShardedLsm::maybe_rebalance`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceConfig {
    /// Master switch: when `false` the service never rebalances on its own
    /// (explicit [`crate::ShardedLsm::split_shard`] /
    /// [`crate::ShardedLsm::merge_shards`] calls still work).
    pub enabled: bool,
    /// Minimum update operations observed across all shards since the last
    /// evaluation before a rebalance decision is considered at all; below
    /// this the traffic sample is too small to act on.
    pub min_ops: u64,
    /// A shard is *hot* — and gets split — when its share of the update
    /// operations since the last evaluation exceeds this fraction.
    pub hot_fraction: f64,
    /// An adjacent shard pair is *cold* — and gets merged — when its
    /// combined share of recent update operations is below this fraction.
    pub cold_fraction: f64,
    /// Never split beyond this many shards.
    pub max_shards: usize,
    /// Never merge below this many shards.
    pub min_shards: usize,
    /// Evaluate the hot/cold thresholds every this many update batches.
    pub check_interval: u64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            enabled: false,
            min_ops: 4096,
            hot_fraction: 0.5,
            cold_fraction: 0.05,
            max_shards: 64,
            min_shards: 1,
            check_interval: 16,
        }
    }
}

/// Typed configuration for [`crate::GpuLsm`], [`crate::ShardedLsm`] and
/// [`crate::AdmittedLsm`].  `None` fields fall back to the corresponding
/// `LSM_*` environment variable (if set) and then to the built-in default,
/// once, when a structure is built; see the crate README's knob table for
/// the mapping.
///
/// ```
/// use gpu_lsm::{LsmConfig, RebalanceConfig};
///
/// let config = LsmConfig::default()
///     .admit_queue_capacity(32)
///     .rebalance(RebalanceConfig {
///         enabled: true,
///         ..RebalanceConfig::default()
///     });
/// assert_eq!(config.admit_queue_capacity, Some(32));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct LsmConfig {
    /// Bloom filter bits per key (`LSM_BLOOM_BITS`, at most 64); 0
    /// disables filters.  Per instance; default
    /// [`gpu_primitives::filter::DEFAULT_BITS_PER_KEY`].
    pub bloom_bits: Option<u32>,
    /// Sequential cutoff for the worker pool; inputs shorter than this run
    /// sequentially.  **Process-wide**: the constructors install it for
    /// every structure in the process.  `None` leaves the pool's own
    /// choice, `LSM_PAR_CUTOFF` or else 4096, which the pool reads itself.
    pub par_cutoff: Option<usize>,
    /// Whether level storage lives in the per-structure slab arena
    /// (`LSM_ARENA`; 0 disables).  Per instance; default on.
    pub arena: Option<bool>,
    /// Admission queue capacity per shard (`LSM_ADMIT_QUEUE`); default
    /// [`crate::admission::DEFAULT_QUEUE_CAPACITY`].
    pub admit_queue_capacity: Option<usize>,
    /// Whether the admission applier coalesces queued batches
    /// (`LSM_ADMIT_COALESCE`; 0 disables).  Default on.
    pub admit_coalesce: Option<bool>,
    /// Bounded backpressure: how long `submit` may block waiting for
    /// admission queue space before failing with
    /// [`LsmError::SubmitTimedOut`] (`LSM_SUBMIT_TIMEOUT_MS`).  `None`
    /// falls back to the env knob and then to waiting forever.
    pub submit_timeout: Option<Duration>,
    /// How long `flush` may block waiting for the queues to drain before
    /// failing with [`LsmError::FlushTimedOut`] (`LSM_FLUSH_TIMEOUT_MS`).
    /// `None` falls back to the env knob and then to waiting forever.
    pub flush_timeout: Option<Duration>,
    /// Online shard split/merge thresholds.  Per instance; no env
    /// equivalent (rebalancing is opt-in via explicit config).
    pub rebalance: RebalanceConfig,
    /// Durability: write-ahead logging and crash-consistent snapshots
    /// (`LSM_WAL_DIR` / `LSM_WAL_FSYNC`).  `None` (the default) keeps the
    /// structure purely in-memory — behavior and benchmarks are then
    /// byte-identical to builds without this field.  Honoured by
    /// [`crate::AdmittedLsm::open_durable`], which also runs recovery; the
    /// in-memory constructors ignore it.
    pub durability: Option<DurabilityConfig>,
}

impl LsmConfig {
    /// Read every `LSM_*` knob this config covers from the environment.
    /// Unset variables leave the field `None`; a variable that is set but
    /// does not parse (or parses to a nonsensical setting) is an
    /// [`LsmError::InvalidEnvValue`] — a typo'd `LSM_ADMIT_QUEUE=4o96`
    /// must not silently change behavior.  This is the documented fallback
    /// layer every constructor consults for the fields its config leaves
    /// unset; prefer explicit configs in new code.  `LSM_PAR_CUTOFF` is not
    /// read here: the worker pool reads it itself.
    ///
    /// | field | variable |
    /// |---|---|
    /// | `bloom_bits` | `LSM_BLOOM_BITS` (bits per key, ≤ 64) |
    /// | `arena` | `LSM_ARENA` (0 = off) |
    /// | `admit_queue_capacity` | `LSM_ADMIT_QUEUE` (must be ≥ 1) |
    /// | `admit_coalesce` | `LSM_ADMIT_COALESCE` (0 = off) |
    /// | `submit_timeout` | `LSM_SUBMIT_TIMEOUT_MS` (ms, ≥ 1) |
    /// | `flush_timeout` | `LSM_FLUSH_TIMEOUT_MS` (ms, ≥ 1) |
    /// | `durability` | `LSM_WAL_DIR` + `LSM_WAL_FSYNC` (records/fsync, ≥ 1) |
    /// | `durability.retry` | `LSM_WAL_RETRIES` (`N` or `N:B`, attempts ≥ 1, backoff µs) |
    /// | `durability.degrade` | `LSM_WAL_DEGRADE` (`failstop` \| `volatile`) |
    pub fn from_env() -> Result<Self> {
        Self::from_env_lookup(|var| match std::env::var(var) {
            Ok(value) => Ok(Some(value)),
            Err(std::env::VarError::NotPresent) => Ok(None),
            Err(std::env::VarError::NotUnicode(raw)) => Err(LsmError::InvalidEnvValue {
                var: var.to_string(),
                value: raw.to_string_lossy().into_owned(),
                reason: "not valid unicode".to_string(),
            }),
        })
    }

    /// [`LsmConfig::from_env`] over an arbitrary variable source, so the
    /// parsing and rejection rules are testable without mutating the
    /// process environment.
    pub(crate) fn from_env_lookup(lookup: impl Fn(&str) -> Result<Option<String>>) -> Result<Self> {
        fn parse<T: std::str::FromStr>(var: &str, raw: Option<String>) -> Result<Option<T>>
        where
            T::Err: std::fmt::Display,
        {
            let Some(raw) = raw else { return Ok(None) };
            let trimmed = raw.trim();
            trimmed
                .parse()
                .map(Some)
                .map_err(|e: T::Err| LsmError::InvalidEnvValue {
                    var: var.to_string(),
                    value: trimmed.to_string(),
                    reason: e.to_string(),
                })
        }
        fn reject<T>(var: &str, value: T, reason: &str) -> LsmError
        where
            T: std::fmt::Display,
        {
            LsmError::InvalidEnvValue {
                var: var.to_string(),
                value: value.to_string(),
                reason: reason.to_string(),
            }
        }

        let bloom_bits = parse::<u32>("LSM_BLOOM_BITS", lookup("LSM_BLOOM_BITS")?)?;
        if let Some(bits) = bloom_bits.filter(|&bits| bits > 64) {
            return Err(reject(
                "LSM_BLOOM_BITS",
                bits,
                "at most 64 bits per key (0 disables filters)",
            ));
        }
        let admit_queue_capacity = parse::<usize>("LSM_ADMIT_QUEUE", lookup("LSM_ADMIT_QUEUE")?)?;
        if admit_queue_capacity == Some(0) {
            return Err(reject(
                "LSM_ADMIT_QUEUE",
                0,
                "queue capacity must be at least 1",
            ));
        }
        let submit_timeout =
            parse::<u64>("LSM_SUBMIT_TIMEOUT_MS", lookup("LSM_SUBMIT_TIMEOUT_MS")?)?;
        if submit_timeout == Some(0) {
            return Err(reject(
                "LSM_SUBMIT_TIMEOUT_MS",
                0,
                "submit timeout must be at least 1 ms (unset the variable to wait forever)",
            ));
        }
        let flush_timeout = parse::<u64>("LSM_FLUSH_TIMEOUT_MS", lookup("LSM_FLUSH_TIMEOUT_MS")?)?;
        if flush_timeout == Some(0) {
            return Err(reject(
                "LSM_FLUSH_TIMEOUT_MS",
                0,
                "flush timeout must be at least 1 ms (unset the variable to wait forever)",
            ));
        }
        let fsync_interval = parse::<usize>("LSM_WAL_FSYNC", lookup("LSM_WAL_FSYNC")?)?;
        if fsync_interval == Some(0) {
            return Err(reject(
                "LSM_WAL_FSYNC",
                0,
                "fsync interval must be at least 1 record",
            ));
        }
        // `N` (attempts, default backoff) or `N:B` (attempts : backoff µs).
        let retry = match lookup("LSM_WAL_RETRIES")? {
            None => None,
            Some(raw) => {
                let trimmed = raw.trim();
                let (attempts_str, backoff_str) = match trimmed.split_once(':') {
                    Some((a, b)) => (a.trim(), Some(b.trim())),
                    None => (trimmed, None),
                };
                let attempts = attempts_str.parse::<u32>().map_err(|e| {
                    reject(
                        "LSM_WAL_RETRIES",
                        trimmed,
                        &format!("attempts: {e} (expected `N` or `N:backoff_us`)"),
                    )
                })?;
                if attempts == 0 {
                    return Err(reject(
                        "LSM_WAL_RETRIES",
                        trimmed,
                        "must allow at least 1 attempt",
                    ));
                }
                let backoff = match backoff_str {
                    Some(b) => Duration::from_micros(b.parse::<u64>().map_err(|e| {
                        reject(
                            "LSM_WAL_RETRIES",
                            trimmed,
                            &format!("backoff: {e} (expected `N` or `N:backoff_us`)"),
                        )
                    })?),
                    None => RetryPolicy::default().backoff,
                };
                Some(RetryPolicy::new(attempts, backoff))
            }
        };
        let degrade = match lookup("LSM_WAL_DEGRADE")? {
            None => None,
            Some(raw) => match raw.trim().to_ascii_lowercase().as_str() {
                "failstop" => Some(DegradeMode::FailStop),
                "volatile" => Some(DegradeMode::DegradeToVolatile),
                other => {
                    return Err(reject(
                        "LSM_WAL_DEGRADE",
                        other,
                        "expected \"failstop\" or \"volatile\"",
                    ))
                }
            },
        };
        let durability = lookup("LSM_WAL_DIR")?.map(|dir| {
            let mut d = DurabilityConfig::new(dir.trim());
            if let Some(records) = fsync_interval {
                d = d.fsync_interval(records);
            }
            if let Some(retry) = retry {
                d = d.retry(retry);
            }
            if let Some(degrade) = degrade {
                d = d.degrade(degrade);
            }
            d
        });
        Ok(LsmConfig {
            bloom_bits,
            par_cutoff: None,
            arena: parse::<u32>("LSM_ARENA", lookup("LSM_ARENA")?)?.map(|v| v != 0),
            admit_queue_capacity,
            admit_coalesce: parse::<u32>("LSM_ADMIT_COALESCE", lookup("LSM_ADMIT_COALESCE")?)?
                .map(|v| v != 0),
            submit_timeout: submit_timeout.map(Duration::from_millis),
            flush_timeout: flush_timeout.map(Duration::from_millis),
            rebalance: RebalanceConfig::default(),
            durability,
        })
    }

    /// Set the Bloom filter bits per key for this instance (0 disables).
    pub fn bloom_bits(mut self, bits: u32) -> Self {
        self.bloom_bits = Some(bits);
        self
    }

    /// Set the worker-pool sequential cutoff (process-wide).
    pub fn par_cutoff(mut self, cutoff: usize) -> Self {
        self.par_cutoff = Some(cutoff);
        self
    }

    /// Enable or disable slab-arena level storage for this instance.
    pub fn arena(mut self, enabled: bool) -> Self {
        self.arena = Some(enabled);
        self
    }

    /// Set the per-shard admission queue capacity (min 1).
    pub fn admit_queue_capacity(mut self, capacity: usize) -> Self {
        self.admit_queue_capacity = Some(capacity.max(1));
        self
    }

    /// Enable or disable admission coalescing.
    pub fn admit_coalesce(mut self, coalesce: bool) -> Self {
        self.admit_coalesce = Some(coalesce);
        self
    }

    /// Bound `submit` backpressure waits: fail with
    /// [`LsmError::SubmitTimedOut`] instead of blocking longer than this.
    pub fn submit_timeout(mut self, timeout: Duration) -> Self {
        self.submit_timeout = Some(timeout);
        self
    }

    /// Bound `flush` drain waits: fail with [`LsmError::FlushTimedOut`]
    /// instead of blocking longer than this.
    pub fn flush_timeout(mut self, timeout: Duration) -> Self {
        self.flush_timeout = Some(timeout);
        self
    }

    /// Set the rebalance thresholds.
    pub fn rebalance(mut self, rebalance: RebalanceConfig) -> Self {
        self.rebalance = rebalance;
        self
    }

    /// Enable durability (WAL + snapshots) under the config's directory.
    /// Takes effect through [`crate::AdmittedLsm::open_durable`].
    pub fn durability(mut self, durability: DurabilityConfig) -> Self {
        self.durability = Some(durability);
        self
    }

    /// Install the process-wide setting this config carries, the worker
    /// pool's cutoff (`par_cutoff`); `None` changes nothing.  Called by the
    /// constructors; safe to call directly when only the pool cutoff is
    /// wanted.
    pub fn apply_process_overrides(&self) {
        if let Some(cutoff) = self.par_cutoff {
            rayon::set_sequential_cutoff(cutoff);
        }
    }

    /// This config with every unset per-instance field taken from the
    /// environment ([`LsmConfig::from_env`]).  Each public constructor
    /// calls this exactly once and keeps the result; fields still `None`
    /// afterwards mean the constant default.  `durability`, `rebalance`
    /// and `par_cutoff` are explicit-only and pass through unchanged.
    pub(crate) fn resolve(&self) -> Result<LsmConfig> {
        Ok(self.with_fallback(LsmConfig::from_env()?))
    }

    /// `self` with every unset per-instance field taken from `fallback`.
    fn with_fallback(&self, fallback: LsmConfig) -> LsmConfig {
        LsmConfig {
            bloom_bits: self.bloom_bits.or(fallback.bloom_bits),
            arena: self.arena.or(fallback.arena),
            admit_queue_capacity: self.admit_queue_capacity.or(fallback.admit_queue_capacity),
            admit_coalesce: self.admit_coalesce.or(fallback.admit_coalesce),
            submit_timeout: self.submit_timeout.or(fallback.submit_timeout),
            flush_timeout: self.flush_timeout.or(fallback.flush_timeout),
            ..self.clone()
        }
    }

    /// The admission configuration this config implies: set fields win,
    /// unset fields take [`AdmissionConfig::default`]'s constants.
    pub fn admission(&self) -> AdmissionConfig {
        let mut ac = AdmissionConfig::default();
        if let Some(capacity) = self.admit_queue_capacity {
            ac.queue_capacity = capacity;
        }
        if let Some(coalesce) = self.admit_coalesce {
            ac.coalesce = coalesce;
        }
        if let Some(timeout) = self.submit_timeout {
            ac.submit_deadline = Some(timeout);
        }
        if let Some(timeout) = self.flush_timeout {
            ac.flush_deadline = Some(timeout);
        }
        ac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_all_fallback() {
        let c = LsmConfig::default();
        assert_eq!(c.bloom_bits, None);
        assert_eq!(c.par_cutoff, None);
        assert_eq!(c.admit_queue_capacity, None);
        assert_eq!(c.admit_coalesce, None);
        assert!(!c.rebalance.enabled);
        // A default config installs no process overrides and its admission
        // view is the constant default.
        assert_eq!(c.admission(), AdmissionConfig::default());
    }

    #[test]
    fn builder_methods_set_fields() {
        let c = LsmConfig::default()
            .bloom_bits(8)
            .par_cutoff(1)
            .arena(true)
            .admit_queue_capacity(0) // clamped to 1
            .admit_coalesce(false)
            .rebalance(RebalanceConfig {
                enabled: true,
                max_shards: 16,
                ..RebalanceConfig::default()
            });
        assert_eq!(c.bloom_bits, Some(8));
        assert_eq!(c.par_cutoff, Some(1));
        assert_eq!(c.arena, Some(true));
        assert_eq!(c.admit_queue_capacity, Some(1));
        assert_eq!(c.admit_coalesce, Some(false));
        assert!(c.rebalance.enabled);
        assert_eq!(c.rebalance.max_shards, 16);
        let ac = c.admission();
        assert_eq!(ac.queue_capacity, 1);
        assert!(!ac.coalesce);
    }

    /// A fake environment for exercising `from_env_lookup` without
    /// touching the real (process-global, racy) environment.
    fn env_of<'a>(vars: &'a [(&'a str, &'a str)]) -> impl Fn(&str) -> Result<Option<String>> + 'a {
        move |var| {
            Ok(vars
                .iter()
                .find(|(name, _)| *name == var)
                .map(|(_, value)| value.to_string()))
        }
    }

    #[test]
    fn from_env_parses_set_variables() {
        let c = LsmConfig::from_env_lookup(env_of(&[
            ("LSM_BLOOM_BITS", "8"),
            ("LSM_PAR_CUTOFF", " 64 "),
            ("LSM_ARENA", "0"),
            ("LSM_ADMIT_QUEUE", "32"),
            ("LSM_ADMIT_COALESCE", "0"),
            ("LSM_SUBMIT_TIMEOUT_MS", "250"),
            ("LSM_FLUSH_TIMEOUT_MS", " 5000 "),
            ("LSM_WAL_DIR", "/tmp/lsm-wal"),
            ("LSM_WAL_FSYNC", "4"),
            ("LSM_WAL_RETRIES", "5:200"),
            ("LSM_WAL_DEGRADE", "Volatile"),
        ]))
        .unwrap();
        assert_eq!(c.bloom_bits, Some(8));
        // The worker pool reads LSM_PAR_CUTOFF itself; the config does not.
        assert_eq!(c.par_cutoff, None);
        assert_eq!(c.arena, Some(false));
        assert_eq!(c.admit_queue_capacity, Some(32));
        assert_eq!(c.admit_coalesce, Some(false));
        assert_eq!(c.submit_timeout, Some(Duration::from_millis(250)));
        assert_eq!(c.flush_timeout, Some(Duration::from_millis(5000)));
        let d = c.durability.unwrap();
        assert_eq!(d.dir, std::path::PathBuf::from("/tmp/lsm-wal"));
        assert_eq!(d.fsync_interval, 4);
        assert_eq!(d.retry, RetryPolicy::new(5, Duration::from_micros(200)));
        assert_eq!(d.degrade, DegradeMode::DegradeToVolatile);
    }

    #[test]
    fn wal_retries_accepts_attempts_only_form() {
        let c = LsmConfig::from_env_lookup(env_of(&[
            ("LSM_WAL_DIR", "/tmp/lsm-wal"),
            ("LSM_WAL_RETRIES", "7"),
        ]))
        .unwrap();
        let d = c.durability.unwrap();
        assert_eq!(d.retry.attempts, 7);
        assert_eq!(d.retry.backoff, RetryPolicy::default().backoff);
    }

    #[test]
    fn from_env_with_nothing_set_is_all_fallback() {
        let c = LsmConfig::from_env_lookup(env_of(&[])).unwrap();
        assert_eq!(c, LsmConfig::default());
        // The real from_env only differs in its variable source; with the
        // knob variables unset in the test environment it behaves the same.
        // (CI stress jobs do set LSM_* knobs, so only spot-check that the
        // call succeeds there.)
        assert!(LsmConfig::from_env().is_ok());
    }

    #[test]
    fn from_env_rejects_unparsable_values_with_context() {
        // The motivating typo: a letter o instead of a zero.
        let err = LsmConfig::from_env_lookup(env_of(&[("LSM_ADMIT_QUEUE", "4o96")])).unwrap_err();
        match err {
            LsmError::InvalidEnvValue { var, value, .. } => {
                assert_eq!(var, "LSM_ADMIT_QUEUE");
                assert_eq!(value, "4o96");
            }
            other => panic!("expected InvalidEnvValue, got {other:?}"),
        }
        for (var, bad) in [
            ("LSM_BLOOM_BITS", "eight"),
            ("LSM_ARENA", "yes"),
            ("LSM_ADMIT_COALESCE", "off"),
            ("LSM_SUBMIT_TIMEOUT_MS", "fast"),
            ("LSM_FLUSH_TIMEOUT_MS", "1.5"),
            ("LSM_WAL_FSYNC", "1s"),
            ("LSM_WAL_RETRIES", "three"),
            ("LSM_WAL_RETRIES", "3:soon"),
            ("LSM_WAL_RETRIES", "3:100:extra"),
            ("LSM_WAL_DEGRADE", "maybe"),
        ] {
            let err = LsmConfig::from_env_lookup(env_of(&[(var, bad)])).unwrap_err();
            assert!(
                matches!(&err, LsmError::InvalidEnvValue { var: v, .. } if v == var),
                "{var}={bad} should be rejected, got {err:?}"
            );
            assert!(err.to_string().contains(var));
        }
    }

    #[test]
    fn from_env_rejects_nonsensical_settings() {
        for (var, bad) in [
            ("LSM_BLOOM_BITS", "65"),
            ("LSM_ADMIT_QUEUE", "0"),
            ("LSM_SUBMIT_TIMEOUT_MS", "0"),
            ("LSM_FLUSH_TIMEOUT_MS", "0"),
            ("LSM_WAL_FSYNC", "0"),
            ("LSM_WAL_RETRIES", "0"),
        ] {
            assert!(
                LsmConfig::from_env_lookup(env_of(&[(var, bad)])).is_err(),
                "{var}={bad} should be rejected"
            );
        }
    }

    #[test]
    fn wal_fsync_without_wal_dir_is_validated_but_inert() {
        let c = LsmConfig::from_env_lookup(env_of(&[("LSM_WAL_FSYNC", "16")])).unwrap();
        assert_eq!(c.durability, None);
        assert!(LsmConfig::from_env_lookup(env_of(&[("LSM_WAL_FSYNC", "bogus")])).is_err());
    }

    #[test]
    fn wal_retries_and_degrade_without_wal_dir_are_validated_but_inert() {
        let c = LsmConfig::from_env_lookup(env_of(&[
            ("LSM_WAL_RETRIES", "4:50"),
            ("LSM_WAL_DEGRADE", "volatile"),
        ]))
        .unwrap();
        assert_eq!(c.durability, None);
        assert!(LsmConfig::from_env_lookup(env_of(&[("LSM_WAL_RETRIES", "nope")])).is_err());
        assert!(LsmConfig::from_env_lookup(env_of(&[("LSM_WAL_DEGRADE", "nope")])).is_err());
    }

    #[test]
    fn explicit_fields_win_over_the_environment_and_unset_ones_stay_default() {
        let env = LsmConfig::from_env_lookup(env_of(&[
            ("LSM_BLOOM_BITS", "0"),
            ("LSM_ADMIT_QUEUE", "32"),
            ("LSM_ADMIT_COALESCE", "0"),
            ("LSM_WAL_DIR", "/tmp/lsm-wal"),
        ]))
        .unwrap();
        let explicit = LsmConfig::default().bloom_bits(12).par_cutoff(64);
        let resolved = explicit.with_fallback(env);
        assert_eq!(resolved.bloom_bits, Some(12));
        assert_eq!(resolved.admit_queue_capacity, Some(32));
        assert_eq!(resolved.admit_coalesce, Some(false));
        // Unset in both layers: left to the constant default.
        assert_eq!(resolved.arena, None);
        assert_eq!(resolved.submit_timeout, None);
        // Explicit-only fields pass through: the environment's WAL
        // directory only reaches a config through from_env itself.
        assert_eq!(resolved.par_cutoff, Some(64));
        assert_eq!(resolved.durability, None);
        let ac = resolved.admission();
        assert_eq!(ac.queue_capacity, 32);
        assert!(!ac.coalesce);
        // Resolving a resolved config changes nothing.
        assert_eq!(resolved.with_fallback(LsmConfig::default()), resolved);
    }

    #[test]
    fn timeouts_flow_into_the_admission_config() {
        let c = LsmConfig::default()
            .submit_timeout(Duration::from_millis(10))
            .flush_timeout(Duration::from_millis(20));
        let ac = c.admission();
        assert_eq!(ac.submit_deadline, Some(Duration::from_millis(10)));
        assert_eq!(ac.flush_deadline, Some(Duration::from_millis(20)));
    }
}
