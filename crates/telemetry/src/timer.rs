//! The one scope timer for hot paths.

use std::sync::Arc;
use std::time::Instant;

use crate::Histogram;

/// Records wall-clock elapsed milliseconds into a [`Histogram`] when the
/// scope ends — the timing primitive for tick phases and other hot
/// paths. It reads the clock exactly twice, once at start and once at
/// drop.
///
/// The guard holds a clone of its handle, so it stays valid even if the
/// registry is dropped first.
///
/// # Examples
///
/// ```
/// use watchmen_telemetry::{FrameTimer, Registry};
///
/// let registry = Registry::new();
/// let hist = registry.histogram("phase_duration_ms");
/// {
///     let _span = FrameTimer::start(&hist);
///     // ... timed work ...
/// }
/// assert_eq!(hist.count(), 1);
/// ```
#[derive(Debug)]
pub struct FrameTimer {
    hist: Arc<Histogram>,
    started: Instant,
}

impl FrameTimer {
    /// Starts timing into `hist`.
    #[must_use]
    pub fn start(hist: &Arc<Histogram>) -> Self {
        FrameTimer { hist: Arc::clone(hist), started: Instant::now() }
    }
}

impl Drop for FrameTimer {
    fn drop(&mut self) {
        self.hist.record(self.started.elapsed().as_secs_f64() * 1000.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn span_records_on_drop() {
        let r = Registry::new();
        let h = r.histogram("t_ms");
        {
            let _span = FrameTimer::start(&h);
        }
        assert_eq!(h.count(), 1);
    }
}
