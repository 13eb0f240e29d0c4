//! A forwarding [`MobilityModel`] that times the model it wraps.
//!
//! `EventDriver::drive` owns the tick loop, so the only way to see how much
//! of a drive segment is motion is from inside the model. [`Timed`]
//! forwards every trait method to the wrapped model unchanged (including
//! `advance_reporting`, `is_static` and `quiescent_for`, which the event
//! `EventDriver`'s schedule depends on) and reports each advance to the shared
//! [`Recorder`] as a `mobility` call.

use crate::trace::Recorder;
use mobility::MobilityModel;
use net_topology::geometry::Point2;
use net_topology::node::NodeId;
use sim_core::time::SimDuration;

/// Times the wrapped model's advances.
pub struct Timed {
    inner: Box<dyn MobilityModel>,
    rec: Recorder,
}

impl Timed {
    /// Wrap `inner`, reporting to `rec`.
    pub fn new(inner: Box<dyn MobilityModel>, rec: Recorder) -> Self {
        Timed { inner, rec }
    }
}

impl MobilityModel for Timed {
    fn advance(&mut self, positions: &mut [Point2], dt: SimDuration) {
        let open = self.rec.begin("mobility", "advance");
        self.inner.advance(positions, dt);
        let secs = self.rec.end(open);
        self.rec.note_mobility(secs, positions.len());
    }

    fn advance_reporting(
        &mut self,
        positions: &mut [Point2],
        dt: SimDuration,
        movers: &mut Vec<NodeId>,
    ) {
        let open = self.rec.begin("mobility", "advance_reporting");
        self.inner.advance_reporting(positions, dt, movers);
        let secs = self.rec.end(open);
        self.rec.note_mobility(secs, movers.len());
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn is_static(&self) -> bool {
        self.inner.is_static()
    }

    fn quiescent_for(&self) -> Option<SimDuration> {
        self.inner.quiescent_for()
    }
}
