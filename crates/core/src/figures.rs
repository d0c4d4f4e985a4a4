//! Figure data structures: one per figure of the paper, each regenerable
//! from a completed study run.

use fork_analytics::{ascii_chart, TimeSeries};
use fork_telemetry::json::Value;

/// One panel of a figure (the paper's figures stack up to three panels).
#[derive(Debug, Clone)]
pub struct FigurePanel {
    /// Y-axis label.
    pub title: String,
    /// The series plotted in this panel.
    pub series: Vec<TimeSeries>,
    /// Log-scale hint for rendering (Figure 4's bottom panel).
    pub log_scale: bool,
}

/// A full figure: id, caption and panels.
#[derive(Debug, Clone)]
pub struct FigureData {
    /// "fig1" … "fig5".
    pub id: &'static str,
    /// The paper's caption, abbreviated.
    pub caption: &'static str,
    /// Panels, top to bottom.
    pub panels: Vec<FigurePanel>,
}

impl FigureData {
    /// Renders every panel as an ASCII chart.
    pub fn render_ascii(&self, width: usize, height: usize) -> String {
        let mut out = format!("== {}: {} ==\n", self.id, self.caption);
        for panel in &self.panels {
            let series: Vec<&TimeSeries> = panel.series.iter().collect();
            let rendered = if panel.log_scale {
                // Plot log10(v) for positive values.
                let logged: Vec<TimeSeries> = panel
                    .series
                    .iter()
                    .map(|s| TimeSeries {
                        label: format!("log10 {}", s.label),
                        points: s
                            .points
                            .iter()
                            .filter(|(_, v)| *v > 0.0)
                            .map(|(t, v)| (*t, v.log10()))
                            .collect(),
                    })
                    .collect();
                let refs: Vec<&TimeSeries> = logged.iter().collect();
                ascii_chart(&panel.title, &refs, width, height)
            } else {
                ascii_chart(&panel.title, &series, width, height)
            };
            out.push_str(&rendered);
            out.push('\n');
        }
        out
    }

    /// All series flattened (for CSV export).
    pub fn all_series(&self) -> Vec<&TimeSeries> {
        self.panels.iter().flat_map(|p| p.series.iter()).collect()
    }

    /// This figure as a JSON value (id, caption, panels with their series).
    pub fn to_json_value(&self) -> Value {
        let panels = self.panels.iter().map(|p| {
            Value::obj([
                ("title", Value::from(p.title.as_str())),
                (
                    "series",
                    Value::Arr(p.series.iter().map(TimeSeries::to_json_value).collect()),
                ),
                ("log_scale", p.log_scale.into()),
            ])
        });
        Value::obj([
            ("id", Value::from(self.id)),
            ("caption", self.caption.into()),
            ("panels", Value::Arr(panels.collect())),
        ])
    }

    /// Compact JSON rendering of [`FigureData::to_json_value`].
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fork_primitives::SimTime;

    fn series(label: &str, vals: &[f64]) -> TimeSeries {
        let mut s = TimeSeries::new(label);
        for (i, v) in vals.iter().enumerate() {
            s.push(SimTime::from_unix(i as u64 * 3_600), *v);
        }
        s
    }

    fn fig() -> FigureData {
        FigureData {
            id: "fig1",
            caption: "test figure",
            panels: vec![
                FigurePanel {
                    title: "Blocks per Hour".into(),
                    series: vec![series("ETH", &[1.0, 2.0]), series("ETC", &[2.0, 1.0])],
                    log_scale: false,
                },
                FigurePanel {
                    title: "# Rebroadcasts/Day".into(),
                    series: vec![series("ETH", &[10.0, 10_000.0, 0.0])],
                    log_scale: true,
                },
            ],
        }
    }

    #[test]
    fn render_includes_all_panels() {
        let r = fig().render_ascii(40, 8);
        assert!(r.contains("fig1"));
        assert!(r.contains("Blocks per Hour"));
        assert!(r.contains("# Rebroadcasts/Day"));
        assert!(r.contains("log10 ETH"), "log panel relabeled");
    }

    #[test]
    fn log_scale_drops_nonpositive_points() {
        let r = fig().render_ascii(40, 8);
        // The log panel's max is log10(10000)=4; axis labels stay small.
        assert!(!r.contains("1.0000e4"), "raw values must not leak: {r}");
    }

    #[test]
    fn all_series_flattens() {
        assert_eq!(fig().all_series().len(), 3);
    }

    #[test]
    fn serializes_to_json() {
        let j = fig().to_json();
        assert!(j.contains("\"id\":\"fig1\""));
        let v = Value::parse(&j).unwrap();
        assert_eq!(v["panels"][0]["series"][0]["label"].as_str(), Some("ETH"));
        assert_eq!(v["panels"][1]["log_scale"].as_bool(), Some(true));
    }
}
