//! The [`FaultModel`] trait and its zero-cost [`NoFaults`] default.

/// The fate of one signal transfer, decided by a fault model.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TransferVerdict {
    /// The transfer arrives intact.
    Deliver,
    /// The transfer arrives with bit errors in its payload.
    Corrupt,
    /// The transfer is lost in flight.
    Drop,
}

/// A source of deterministic fault decisions, queried by the simulation
/// engine at well-defined points in event order.
///
/// Every randomised hook receives the simulation time and an
/// engine-supplied `salt` that is unique per decision point (derived
/// from the deciding process and a per-process nonce). Implementations
/// must make each decision a **pure function of `(now_ns, salt)`** and
/// their own configuration — never of the global call order. A
/// decision therefore does not shift when the engine consults the
/// model for other decisions in a different order or number.
pub trait FaultModel {
    /// Fast gate: when `false`, callers may skip every other hook (and
    /// the engine emits no fault records at all).
    fn is_active(&self) -> bool;

    /// Decides the fate of a signal transfer of `bytes` bytes that
    /// traversed `hops` network segments.
    fn transfer_verdict(
        &mut self,
        now_ns: u64,
        bytes: u64,
        hops: u32,
        salt: u64,
    ) -> TransferVerdict;

    /// Injects bit errors into a payload (called only after a
    /// [`TransferVerdict::Corrupt`] verdict, with the same
    /// `(now_ns, salt)` key as the verdict).
    fn corrupt_payload(&mut self, now_ns: u64, payload: &mut [u8], salt: u64);

    /// Extra delay, in nanoseconds, added when a timer of nominal
    /// `duration_ns` is armed.
    fn timer_jitter_ns(&mut self, now_ns: u64, duration_ns: u64, salt: u64) -> u64;

    /// If the processing element named `pe` is inside a stall/outage
    /// window at `now_ns`, returns the simulation time at which the
    /// window ends (`u64::MAX` for a permanent outage).
    fn outage_until(&mut self, pe: &str, now_ns: u64) -> Option<u64>;
}

/// The default fault model: nothing ever goes wrong.
///
/// Every method is a trivially-inlinable constant, so code generic over
/// [`FaultModel`] monomorphises to exactly the un-faulted code path.
#[derive(Clone, Copy, Default, Debug)]
pub struct NoFaults;

impl FaultModel for NoFaults {
    #[inline]
    fn is_active(&self) -> bool {
        false
    }

    #[inline]
    fn transfer_verdict(
        &mut self,
        _now_ns: u64,
        _bytes: u64,
        _hops: u32,
        _salt: u64,
    ) -> TransferVerdict {
        TransferVerdict::Deliver
    }

    #[inline]
    fn corrupt_payload(&mut self, _now_ns: u64, _payload: &mut [u8], _salt: u64) {}

    #[inline]
    fn timer_jitter_ns(&mut self, _now_ns: u64, _duration_ns: u64, _salt: u64) -> u64 {
        0
    }

    #[inline]
    fn outage_until(&mut self, _pe: &str, _now_ns: u64) -> Option<u64> {
        None
    }
}
