//! The simulated GPU device: memory, residency, batched execution, and
//! utilization accounting.
//!
//! The device substitutes for physical GPUs (DESIGN.md §2). It executes
//! batched model invocations whose duration comes from the model's batching
//! profile, enforces memory capacity when models are loaded, charges model
//! load time, and tracks busy time so experiments can report utilization.
//! Execution *ordering* is owned by the caller (a duty-cycle executor or a
//! baseline's uncoordinated dispatch); the device checks only that no two
//! executions overlap unless they are explicitly declared concurrent (the
//! Fig. 14 interference scenarios).

use std::collections::HashMap;

use nexus_profile::{DeviceType, Micros};

/// Identifies something resident in GPU memory (a model or a shared prefix).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResidentKey(pub u64);

/// Errors from GPU operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GpuError {
    /// Loading would exceed device memory.
    OutOfMemory {
        /// Bytes requested by the load.
        requested: u64,
        /// Bytes currently free.
        available: u64,
    },
    /// The key is already resident.
    AlreadyLoaded(ResidentKey),
    /// The key is not resident.
    NotLoaded(ResidentKey),
}

impl std::fmt::Display for GpuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GpuError::OutOfMemory {
                requested,
                available,
            } => write!(
                f,
                "out of GPU memory: requested {requested} bytes, {available} free"
            ),
            GpuError::AlreadyLoaded(k) => write!(f, "model {k:?} already loaded"),
            GpuError::NotLoaded(k) => write!(f, "model {k:?} not loaded"),
        }
    }
}

impl std::error::Error for GpuError {}

/// Completed execution record returned by [`SimGpu::execute`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Execution {
    /// When the GPU started the batch.
    pub start: Micros,
    /// When the batch finished.
    pub finish: Micros,
}

/// A simulated GPU.
#[derive(Debug, Clone)]
pub struct SimGpu {
    device: DeviceType,
    resident: HashMap<ResidentKey, u64>,
    memory_used: u64,
    busy_until: Micros,
    busy_total: Micros,
    executions: u64,
}

impl SimGpu {
    /// Creates an idle GPU of the given device type.
    pub fn new(device: DeviceType) -> Self {
        SimGpu {
            device,
            resident: HashMap::new(),
            memory_used: 0,
            busy_until: Micros::ZERO,
            busy_total: Micros::ZERO,
            executions: 0,
        }
    }

    /// The device type.
    pub fn device(&self) -> &DeviceType {
        &self.device
    }

    /// Bytes of device memory in use.
    pub fn memory_used(&self) -> u64 {
        self.memory_used
    }

    /// Bytes of device memory free.
    fn memory_free(&self) -> u64 {
        self.device.memory_bytes - self.memory_used
    }

    /// Loads `bytes` of model state under `key`, returning the virtual time
    /// at which the load completes (`now + load_time`).
    pub fn load(
        &mut self,
        key: ResidentKey,
        bytes: u64,
        load_time: Micros,
        now: Micros,
    ) -> Result<Micros, GpuError> {
        if self.resident.contains_key(&key) {
            return Err(GpuError::AlreadyLoaded(key));
        }
        if bytes > self.memory_free() {
            return Err(GpuError::OutOfMemory {
                requested: bytes,
                available: self.memory_free(),
            });
        }
        self.resident.insert(key, bytes);
        self.memory_used += bytes;
        Ok(now + load_time)
    }

    /// Unloads `key`, freeing its memory immediately.
    pub fn unload(&mut self, key: ResidentKey) -> Result<(), GpuError> {
        match self.resident.remove(&key) {
            Some(bytes) => {
                self.memory_used -= bytes;
                Ok(())
            }
            None => Err(GpuError::NotLoaded(key)),
        }
    }

    /// The earliest time a new exclusive execution may start.
    pub(crate) fn free_at(&self) -> Micros {
        self.busy_until
    }

    /// Executes one batch exclusively: the GPU is busy `[max(start,
    /// free_at), +duration)`.
    ///
    /// The caller supplies the duration (typically `profile.latency(b)`,
    /// possibly adjusted for interference or prefix batching).
    pub fn execute(&mut self, start: Micros, duration: Micros) -> Execution {
        let actual_start = start.max(self.busy_until);
        let finish = actual_start + duration;
        self.busy_until = finish;
        self.busy_total += duration;
        self.executions += 1;
        Execution {
            start: actual_start,
            finish,
        }
    }

    /// Executes a back-to-back sequence of rung-shaped minibatches in one
    /// exclusive slot (ladder execution, DESIGN.md §16): `parts` yields
    /// each minibatch's duration. The device is busy from
    /// `max(start, free_at)` for the summed duration with no idle gaps;
    /// each minibatch counts as its own execution for the stats.
    pub fn execute_sequence<I>(&mut self, start: Micros, parts: I) -> Execution
    where
        I: IntoIterator<Item = Micros>,
    {
        let actual_start = start.max(self.busy_until);
        let mut finish = actual_start;
        for duration in parts {
            finish += duration;
            self.busy_total += duration;
            self.executions += 1;
        }
        self.busy_until = finish;
        Execution {
            start: actual_start,
            finish,
        }
    }

    /// Accrues busy time without exclusive serialization — used for
    /// time-shared (uncoordinated container) execution where `duration` is
    /// this execution's fair-share device time.
    pub fn accrue_shared(&mut self, duration: Micros) {
        self.busy_total += duration;
        self.executions += 1;
    }

    /// Total GPU-busy virtual time.
    pub fn busy_total(&self) -> Micros {
        self.busy_total
    }

    /// Number of batch executions performed.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Fraction of `[0, horizon)` the GPU spent executing.
    pub fn utilization(&self, horizon: Micros) -> f64 {
        if horizon == Micros::ZERO {
            0.0
        } else {
            (self.busy_total.as_micros() as f64 / horizon.as_micros() as f64).min(1.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nexus_profile::GPU_GTX1080TI;

    fn gpu() -> SimGpu {
        SimGpu::new(GPU_GTX1080TI)
    }

    #[test]
    fn load_respects_memory_capacity() {
        let mut g = gpu();
        let cap = g.device().memory_bytes;
        let done = g
            .load(
                ResidentKey(1),
                cap / 2,
                Micros::from_millis(300),
                Micros::ZERO,
            )
            .unwrap();
        assert_eq!(done, Micros::from_millis(300));
        let err = g
            .load(ResidentKey(2), cap, Micros::ZERO, Micros::ZERO)
            .unwrap_err();
        assert!(matches!(err, GpuError::OutOfMemory { .. }));
        assert_eq!(g.memory_used(), cap / 2);
    }

    #[test]
    fn double_load_and_missing_unload_are_errors() {
        let mut g = gpu();
        g.load(ResidentKey(1), 1_000, Micros::ZERO, Micros::ZERO)
            .unwrap();
        assert_eq!(
            g.load(ResidentKey(1), 1_000, Micros::ZERO, Micros::ZERO),
            Err(GpuError::AlreadyLoaded(ResidentKey(1)))
        );
        assert_eq!(
            g.unload(ResidentKey(9)),
            Err(GpuError::NotLoaded(ResidentKey(9)))
        );
    }

    #[test]
    fn unload_frees_memory() {
        let mut g = gpu();
        g.load(ResidentKey(1), 5_000, Micros::ZERO, Micros::ZERO)
            .unwrap();
        g.unload(ResidentKey(1)).unwrap();
        assert_eq!(g.memory_used(), 0);
        assert_eq!(
            g.unload(ResidentKey(1)),
            Err(GpuError::NotLoaded(ResidentKey(1)))
        );
    }

    #[test]
    fn executions_serialize_on_the_device() {
        let mut g = gpu();
        let e1 = g.execute(Micros::ZERO, Micros::from_millis(10));
        assert_eq!(e1.start, Micros::ZERO);
        assert_eq!(e1.finish, Micros::from_millis(10));
        // Requested at t=5 but the GPU is busy until t=10.
        let e2 = g.execute(Micros::from_millis(5), Micros::from_millis(10));
        assert_eq!(e2.start, Micros::from_millis(10));
        assert_eq!(e2.finish, Micros::from_millis(20));
    }

    #[test]
    fn sequence_runs_back_to_back_and_serializes() {
        let mut g = gpu();
        g.execute(Micros::ZERO, Micros::from_millis(10));
        // Requested at t=5 but busy until t=10; three minibatches run
        // gap-free after that.
        let e = g.execute_sequence(
            Micros::from_millis(5),
            [
                Micros::from_millis(8),
                Micros::from_millis(8),
                Micros::from_millis(4),
            ],
        );
        assert_eq!(e.start, Micros::from_millis(10));
        assert_eq!(e.finish, Micros::from_millis(30));
        assert_eq!(g.free_at(), Micros::from_millis(30));
        assert_eq!(g.executions(), 4);
        assert_eq!(g.busy_total(), Micros::from_millis(30));
    }

    #[test]
    fn utilization_accounts_busy_time_only() {
        let mut g = gpu();
        g.execute(Micros::ZERO, Micros::from_millis(30));
        g.execute(Micros::from_millis(70), Micros::from_millis(30));
        let util = g.utilization(Micros::from_millis(120));
        assert!((util - 0.5).abs() < 1e-9, "util={util}");
        assert_eq!(g.executions(), 2);
    }

    #[test]
    fn utilization_of_zero_horizon_is_zero() {
        assert_eq!(gpu().utilization(Micros::ZERO), 0.0);
    }
}
