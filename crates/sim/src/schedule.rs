//! Piecewise-constant demand schedules.
//!
//! A [`DemandSchedule`] describes how much bandwidth a flow *wants* over
//! time: a sorted list of `(from, demand)` pieces where `None` means
//! unthrottled. Both the transaction-level engine and the fluid engine
//! evaluate the same schedule type, so a scenario written once drives
//! either backend.

use serde::{Deserialize, JsonReader, Serialize};

use crate::time::SimTime;
use crate::units::Bandwidth;

/// A piecewise-constant demand schedule.
///
/// Pieces are `(from, demand)` with `None` = unthrottled; the schedule
/// holds each piece until the next one starts. Every schedule, built or
/// parsed, starts at time zero, has strictly increasing piece starts, and
/// demands only finite, non-negative rates.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DemandSchedule {
    pieces: Vec<(SimTime, Option<Bandwidth>)>,
}

/// Parses `{"pieces": [[from, demand], ...]}` under
/// [`DemandSchedule::piecewise`]'s rules, so a malformed schedule in a
/// spec is a parse error rather than a panic at its first lookup.
impl Deserialize for DemandSchedule {
    fn from_json(r: &mut JsonReader<'_>) -> Result<Self, serde::Error> {
        // As a derived struct reads it: the first `pieces` key wins and
        // other keys are skipped; anything but a map has no `pieces`.
        let mut pieces = None;
        if r.begin_map() {
            while let Some(key) = r.next_key() {
                if &*key == "pieces" && pieces.is_none() {
                    pieces = Some(r.read_or_skip(Deserialize::from_json));
                } else {
                    r.skip();
                }
            }
        }
        let pieces = pieces.ok_or_else(|| serde::Error::missing_field("pieces"))??;
        Self::checked(pieces).map_err(serde::Error::custom)
    }
}

impl DemandSchedule {
    /// A constant schedule.
    pub fn constant(demand: Option<Bandwidth>) -> Self {
        DemandSchedule {
            pieces: vec![(SimTime::ZERO, demand)],
        }
    }

    /// Builds from `(from, demand)` pieces: they must be non-empty, start
    /// at time zero and be strictly increasing in time, and every demand
    /// must be finite and non-negative (`None` = unthrottled).
    ///
    /// # Panics
    ///
    /// Panics on pieces that break those rules.
    pub fn piecewise(pieces: Vec<(SimTime, Option<Bandwidth>)>) -> Self {
        Self::checked(pieces).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`DemandSchedule::piecewise`] with the broken rule as an error.
    fn checked(pieces: Vec<(SimTime, Option<Bandwidth>)>) -> Result<Self, String> {
        let start = pieces.first().ok_or("schedule needs at least one piece")?.0;
        if start != SimTime::ZERO {
            return Err(format!("schedule must start at zero, not at {start}"));
        }
        if let Some(i) = (1..pieces.len()).find(|&i| pieces[i - 1].0 >= pieces[i].0) {
            return Err(format!(
                "schedule pieces must be strictly increasing (piece {i})"
            ));
        }
        for (i, (_, demand)) in pieces.iter().enumerate() {
            let gb_s = demand.map_or(0.0, |b| b.as_gb_per_s());
            if !(gb_s.is_finite() && gb_s >= 0.0) {
                return Err(format!(
                    "schedule piece {i} demands {gb_s} GB/s (must be finite and >= 0)"
                ));
            }
        }
        Ok(DemandSchedule { pieces })
    }

    /// The demand at time `t`.
    pub fn at(&self, t: SimTime) -> Option<Bandwidth> {
        self.pieces
            .iter()
            .rev()
            .find(|(from, _)| *from <= t)
            .map(|(_, d)| *d)
            .expect("schedule covers time zero")
    }

    /// The first piece boundary strictly after `t`, if any.
    pub fn next_change_after(&self, t: SimTime) -> Option<SimTime> {
        self.pieces.iter().map(|(from, _)| *from).find(|&f| f > t)
    }

    /// The largest demand across all pieces, or `None` if any piece is
    /// unthrottled.
    pub fn peak(&self) -> Option<Bandwidth> {
        let mut best = Bandwidth::ZERO;
        for (_, d) in &self.pieces {
            match d {
                None => return None,
                Some(b) => {
                    if *b > best {
                        best = *b;
                    }
                }
            }
        }
        Some(best)
    }

    /// True when the schedule has a single piece (demand never changes).
    pub fn is_constant(&self) -> bool {
        self.pieces.len() == 1
    }

    /// The raw `(from, demand)` pieces, in time order.
    pub fn pieces(&self) -> &[(SimTime, Option<Bandwidth>)] {
        &self.pieces
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gb(x: f64) -> Bandwidth {
        Bandwidth::from_gb_per_s(x)
    }

    #[test]
    fn schedule_lookup() {
        let s = DemandSchedule::piecewise(vec![
            (SimTime::ZERO, None),
            (SimTime::from_secs(1), Some(gb(5.0))),
            (SimTime::from_secs(2), None),
        ]);
        assert_eq!(s.at(SimTime::from_millis(500)), None);
        assert_eq!(s.at(SimTime::from_millis(1500)), Some(gb(5.0)));
        assert_eq!(s.at(SimTime::from_secs(3)), None);
    }

    #[test]
    #[should_panic(expected = "must start at zero")]
    fn schedule_must_start_at_zero() {
        let _ = DemandSchedule::piecewise(vec![(SimTime::from_secs(1), None)]);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn schedule_must_be_sorted() {
        let _ = DemandSchedule::piecewise(vec![
            (SimTime::ZERO, None),
            (SimTime::from_secs(2), Some(gb(1.0))),
            (SimTime::from_secs(1), None),
        ]);
    }

    #[test]
    fn next_change_walks_boundaries() {
        let s = DemandSchedule::piecewise(vec![
            (SimTime::ZERO, None),
            (SimTime::from_secs(1), Some(gb(5.0))),
            (SimTime::from_secs(2), None),
        ]);
        assert_eq!(
            s.next_change_after(SimTime::ZERO),
            Some(SimTime::from_secs(1))
        );
        assert_eq!(
            s.next_change_after(SimTime::from_millis(1000)),
            Some(SimTime::from_secs(2))
        );
        assert_eq!(s.next_change_after(SimTime::from_secs(2)), None);
        assert!(DemandSchedule::constant(None)
            .next_change_after(SimTime::ZERO)
            .is_none());
    }

    #[test]
    fn peak_and_constant() {
        assert_eq!(DemandSchedule::constant(None).peak(), None);
        assert!(DemandSchedule::constant(None).is_constant());
        let s = DemandSchedule::piecewise(vec![
            (SimTime::ZERO, Some(gb(2.0))),
            (SimTime::from_secs(1), Some(gb(7.0))),
            (SimTime::from_secs(2), Some(gb(3.0))),
        ]);
        assert_eq!(s.peak(), Some(gb(7.0)));
        assert!(!s.is_constant());
        let unbounded = DemandSchedule::piecewise(vec![
            (SimTime::ZERO, Some(gb(2.0))),
            (SimTime::from_secs(1), None),
        ]);
        assert_eq!(unbounded.peak(), None);
    }

    #[test]
    fn round_trips_through_json() {
        let s = DemandSchedule::piecewise(vec![
            (SimTime::ZERO, Some(gb(2.0))),
            (SimTime::from_secs(1), None),
        ]);
        let mut w = serde::JsonWriter::compact();
        s.write_json(&mut w);
        let text = w.finish();
        let back = DemandSchedule::from_json(&mut JsonReader::new(&text).unwrap()).unwrap();
        assert_eq!(s, back);
    }
}
