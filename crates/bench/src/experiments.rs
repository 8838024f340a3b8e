//! The experiment implementations.

use aerorem_mission::campaign::{Campaign, CampaignConfig, CampaignReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Default seed used by the `experiments` binary (`--seed` overrides).
pub const DEFAULT_SEED: u64 = 2206;

/// Runs the paper's full two-UAV campaign once — shared input of the
/// Figure 6/7/8 and stats/prep experiments.
pub fn paper_campaign(seed: u64) -> CampaignReport {
    let mut rng = StdRng::seed_from_u64(seed);
    Campaign::new(CampaignConfig::paper_demo()).run(&mut rng)
}

/// Figure 5: self-interference of the Crazyradio.
pub mod fig5 {
    use aerorem_propagation::building::SyntheticBuilding;
    use aerorem_propagation::channel::FIGURE5_NRF_FREQS_MHZ;
    use aerorem_propagation::scan::{detections_per_channel, perform_scan, ScanConfig};
    use aerorem_radio::Crazyradio;
    use aerorem_spatial::{Aabb, Vec3};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Scans per configuration (the paper did 3).
    pub const SCANS_PER_CONFIG: usize = 3;

    /// One series of the figure: a radio configuration and the mean AP
    /// count per Wi-Fi channel.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Series {
        /// `Some(freq)` for an active Crazyradio, `None` for radio off.
        pub radio_mhz: Option<f64>,
        /// Mean detected-AP count per channel 1..=13, in channel order.
        pub mean_per_channel: Vec<f64>,
    }

    impl Series {
        /// Total mean detections across all channels.
        pub fn total(&self) -> f64 {
            self.mean_per_channel.iter().sum()
        }
    }

    /// The full figure: one series per radio frequency plus radio-off.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Fig5 {
        /// All series, radio-off last (as the paper's baseline).
        pub series: Vec<Series>,
    }

    /// Runs the experiment: a fixed scanner position in the paper volume,
    /// 3 scans per Crazyradio frequency (2400…2525 MHz in 25 MHz steps) and
    /// 3 with the radio off.
    pub fn run(seed: u64) -> Fig5 {
        let volume = Aabb::paper_volume();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF165);
        let env = SyntheticBuilding::paper_like().generate(volume, &mut rng);
        let scanner_pos = Vec3::new(volume.center().x, volume.center().y, 1.0);
        let radio_pos = Vec3::new(-1.5, 1.6, 0.8);
        let cfg = ScanConfig::paper_default();
        let mut series = Vec::new();
        let configs: Vec<Option<f64>> = FIGURE5_NRF_FREQS_MHZ
            .iter()
            .map(|&f| Some(f))
            .chain([None])
            .collect();
        for radio_mhz in configs {
            let interferers: Vec<_> = match radio_mhz {
                Some(f) => {
                    let radio = Crazyradio::new(f, radio_pos).expect("figure-5 frequency");
                    radio.interference().into_iter().collect()
                }
                None => Vec::new(),
            };
            let mut sums = vec![0.0; 13];
            for _ in 0..SCANS_PER_CONFIG {
                let obs = perform_scan(&env, scanner_pos, &interferers, &cfg, &mut rng);
                for (i, (_, n)) in detections_per_channel(&obs, &cfg).iter().enumerate() {
                    sums[i] += *n as f64;
                }
            }
            series.push(Series {
                radio_mhz,
                mean_per_channel: sums
                    .into_iter()
                    .map(|s| s / SCANS_PER_CONFIG as f64)
                    .collect(),
            });
        }
        Fig5 { series }
    }

    /// Renders the figure as a text table (channels with no detections in
    /// any series are omitted, like the paper's plot).
    pub fn render(fig: &Fig5) -> String {
        let mut used: Vec<usize> = (0..13)
            .filter(|&c| fig.series.iter().any(|s| s.mean_per_channel[c] > 0.0))
            .collect();
        used.sort_unstable();
        let mut out = String::from("Fig5: mean APs detected per 802.11 channel\n");
        out.push_str("radio      ");
        for c in &used {
            out.push_str(&format!("ch{:<4}", c + 1));
        }
        out.push('\n');
        for s in &fig.series {
            let label = match s.radio_mhz {
                Some(f) => format!("{f:.0} MHz"),
                None => "OFF".to_string(),
            };
            out.push_str(&format!("{label:<10} "));
            for c in &used {
                out.push_str(&format!("{:<6.1}", s.mean_per_channel[*c]));
            }
            out.push_str(&format!(" | total {:.1}\n", s.total()));
        }
        out
    }
}

/// Figure 6: samples per UAV and scanned location.
pub mod fig6 {
    use aerorem_mission::campaign::CampaignReport;
    use aerorem_uav::UavId;

    /// Per-waypoint sample counts for one UAV.
    #[derive(Debug, Clone, PartialEq)]
    pub struct UavSeries {
        /// The UAV.
        pub uav: UavId,
        /// `(waypoint index, samples collected there)` in visit order.
        pub per_location: Vec<(usize, usize)>,
    }

    /// The figure: one series per UAV.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Fig6 {
        /// Per-UAV series, UAV A first.
        pub series: Vec<UavSeries>,
    }

    /// Extracts the figure from a campaign report.
    pub fn run(report: &CampaignReport) -> Fig6 {
        let counts = report.samples.counts_per_location();
        let mut series = Vec::new();
        for leg in &report.legs {
            let per_location: Vec<(usize, usize)> = (0..leg.waypoints_planned)
                .map(|w| (w, counts.get(&(leg.uav, w)).copied().unwrap_or(0)))
                .collect();
            series.push(UavSeries {
                uav: leg.uav,
                per_location,
            });
        }
        Fig6 { series }
    }

    /// Renders the per-location counts plus the per-UAV totals the paper
    /// quotes (1495 vs 1201).
    pub fn render(fig: &Fig6) -> String {
        let mut out = String::from("Fig6: samples per UAV and scanned location\n");
        for s in &fig.series {
            let total: usize = s.per_location.iter().map(|(_, n)| n).sum();
            out.push_str(&format!("{} (total {total}):\n  ", s.uav));
            for (w, n) in &s.per_location {
                out.push_str(&format!("{w}:{n} "));
            }
            out.push('\n');
        }
        out
    }
}

/// Figure 7: per-axis histograms of sample counts (0.5 m bins).
pub mod fig7 {
    use aerorem_mission::campaign::CampaignReport;
    use aerorem_numerics::stats::Histogram;

    /// The figure: x-axis and y-axis histograms.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Fig7 {
        /// Histogram over sample x-coordinates.
        pub x_hist: Histogram,
        /// Histogram over sample y-coordinates.
        pub y_hist: Histogram,
    }

    /// Extracts the figure from a campaign report.
    ///
    /// # Panics
    ///
    /// Panics if the campaign produced no samples.
    pub fn run(report: &CampaignReport) -> Fig7 {
        Fig7 {
            x_hist: report
                .samples
                .axis_histogram(0, 0.5)
                .expect("campaign produced samples"),
            y_hist: report
                .samples
                .axis_histogram(1, 0.5)
                .expect("campaign produced samples"),
        }
    }

    /// Renders both histograms.
    pub fn render(fig: &Fig7) -> String {
        let mut out = String::from("Fig7: samples per 0.5 m bin\n");
        for (axis, h) in [("x", &fig.x_hist), ("y", &fig.y_hist)] {
            out.push_str(&format!("{axis}-axis:\n"));
            for (lo, hi, n) in h.iter() {
                out.push_str(&format!(
                    "  [{lo:>5.2}, {hi:>5.2}) {n:>5} {}\n",
                    "#".repeat((n / 20) as usize)
                ));
            }
        }
        out
    }
}

/// Figure 8: RMSE per prediction model.
pub mod fig8 {
    use aerorem_core::features::{preprocess, PreprocessConfig};
    use aerorem_core::models::{evaluate_all, ModelKind, ModelScore};
    use aerorem_mission::campaign::CampaignReport;
    use aerorem_ml::MlError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The figure: one score per model.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Fig8 {
        /// RMSEs, in the paper's model order (plus extensions if requested).
        pub scores: Vec<ModelScore>,
        /// Samples retained by preprocessing.
        pub retained: usize,
    }

    /// Runs preprocessing + the Figure-8 protocol (75/25 split) over a
    /// campaign's samples.
    ///
    /// # Errors
    ///
    /// Propagates preprocessing and estimator errors.
    pub fn run(
        report: &CampaignReport,
        include_extensions: bool,
        seed: u64,
    ) -> Result<Fig8, MlError> {
        let (data, layout, prep) = preprocess(&report.samples, &PreprocessConfig::paper())?;
        let kinds: &[ModelKind] = if include_extensions {
            &ModelKind::ALL
        } else {
            &ModelKind::PAPER_FIGURE8
        };
        let mut rng = StdRng::seed_from_u64(seed ^ 0xF168);
        let scores = evaluate_all(kinds, &data, &layout, &mut rng)?;
        Ok(Fig8 {
            scores,
            retained: prep.retained_samples,
        })
    }

    /// Renders the RMSE table (paper values alongside for comparison).
    pub fn render(fig: &Fig8) -> String {
        let paper_rmse = |k: ModelKind| -> Option<f64> {
            match k {
                ModelKind::MeanPerMac => Some(4.8107),
                ModelKind::KnnScaled16 => Some(4.4186),
                ModelKind::Mlp16 => Some(4.4870),
                _ => None,
            }
        };
        let mut out = format!(
            "Fig8: model RMSE on a 75/25 split ({} samples)\n{:<32} {:>10} {:>10}\n",
            fig.retained, "model", "ours[dBm]", "paper[dBm]"
        );
        for s in &fig.scores {
            let p = paper_rmse(s.kind)
                .map(|v| format!("{v:>10.4}"))
                .unwrap_or_else(|| format!("{:>10}", "-"));
            out.push_str(&format!("{:<32} {:>10.4} {p}\n", s.kind.label(), s.rmse_dbm));
        }
        out
    }
}

/// §III-A endurance test.
pub mod endurance {
    use aerorem_mission::endurance::{run_endurance_test, EnduranceConfig, EnduranceResult};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs the endurance test with the paper's parameters.
    pub fn run(seed: u64) -> EnduranceResult {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xE4D);
        run_endurance_test(&EnduranceConfig::paper(), &mut rng)
    }

    /// Renders the result next to the paper's 36 scans / 6 min 12 s.
    pub fn render(r: &EnduranceResult) -> String {
        format!(
            "Endurance: {} scans over {} (paper: 36 scans over 06:12)\nfinal battery fraction: {:.1}%\n",
            r.scans_completed,
            r.endurance,
            r.final_battery_fraction * 100.0
        )
    }
}

/// §III-A collection statistics.
pub mod stats {
    use aerorem_mission::campaign::CampaignReport;

    /// Renders the collection statistics block with the paper's numbers
    /// alongside.
    pub fn render(report: &CampaignReport) -> String {
        let counts = report.samples.counts_per_uav();
        let mut per_uav: Vec<String> = counts
            .iter()
            .map(|(u, n)| format!("{u}: {n}"))
            .collect();
        per_uav.sort();
        format!(
            "Collection stats (paper values in parentheses)\n\
             total samples:  {} (2696)\n\
             per UAV:        {} (1495 / 1201)\n\
             distinct MACs:  {} (73)\n\
             distinct SSIDs: {} (49)\n\
             mean RSS:       {:.1} dBm (≈ -73)\n\
             UAV active:     {}\n\
             localization error of annotations: {:.3} m\n",
            report.samples.len(),
            per_uav.join(", "),
            report.samples.distinct_macs(),
            report.samples.distinct_ssids(),
            report.samples.mean_rssi_dbm().unwrap_or(f64::NAN),
            report
                .legs
                .iter()
                .map(|l| format!("{} {}", l.uav, l.active_time))
                .collect::<Vec<_>>()
                .join(", "),
            report.samples.mean_annotation_error_m().unwrap_or(f64::NAN),
        )
    }
}

/// §III-B preprocessing retention.
pub mod prep {
    use aerorem_core::features::{preprocess, PreprocessConfig, PreprocessReport};
    use aerorem_mission::campaign::CampaignReport;
    use aerorem_ml::MlError;

    /// Runs the paper's preprocessing over a campaign.
    ///
    /// # Errors
    ///
    /// Propagates preprocessing errors.
    pub fn run(report: &CampaignReport) -> Result<PreprocessReport, MlError> {
        preprocess(&report.samples, &PreprocessConfig::paper()).map(|(_, _, r)| r)
    }

    /// Renders retention next to the paper's 2565 kept / 131 dropped.
    pub fn render(r: &PreprocessReport) -> String {
        format!(
            "Preprocessing (MACs with <16 samples dropped)\n\
             retained samples: {} (paper: 2565)\n\
             dropped samples:  {} (paper: 131)\n\
             retained MACs:    {} of {}\n",
            r.retained_samples, r.dropped_samples, r.retained_macs, r.total_macs
        )
    }
}

/// §II-B localization accuracy.
pub mod loc {
    use aerorem_localization::anchors::AnchorConstellation;
    use aerorem_localization::eval::{anchor_count_sweep, AnchorSweepRow};
    use aerorem_spatial::{Aabb, Vec3};

    /// Runs the anchor-count sweep at the endurance hover point.
    pub fn run(seed: u64) -> Vec<AnchorSweepRow> {
        let anchors = AnchorConstellation::volume_corners(Aabb::paper_volume());
        anchor_count_sweep(&anchors, Vec3::new(1.87, 1.60, 1.0), 4, 5, seed ^ 0x10C)
    }

    /// Renders the sweep (paper: ~9 cm with 6 anchors, TDoA slightly
    /// better).
    pub fn render(rows: &[AnchorSweepRow]) -> String {
        let mut out = String::from(
            "Localization: hover RMSE vs anchor count (paper: ~9 cm @ 6 anchors)\n\
             anchors  TWR [m]   TDoA [m]\n",
        );
        for r in rows {
            out.push_str(&format!(
                "{:>7}  {:>8.3}  {:>8.3}\n",
                r.anchors, r.twr_rmse_m, r.tdoa_rmse_m
            ));
        }
        out
    }
}

/// §II-C firmware ablation.
pub mod queue {
    use aerorem_mission::scanflow::{run_ablation, ScanFlowOutcome};
    use aerorem_propagation::building::SyntheticBuilding;
    use aerorem_spatial::Aabb;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Runs the four-variant firmware ablation.
    pub fn run(seed: u64) -> Vec<ScanFlowOutcome> {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0E0E);
        let env = SyntheticBuilding::paper_like().generate(Aabb::paper_volume(), &mut rng);
        run_ablation(&env, &mut rng)
    }

    /// Renders the ablation table.
    pub fn render(rows: &[ScanFlowOutcome]) -> String {
        let mut out = String::from(
            "Firmware ablation: one radio-off 3 s scan cycle\n\
             variant                       survived  drift[m]  rows  delivered  dropped pkts\n",
        );
        for r in rows {
            out.push_str(&format!(
                "{:<29} {:>8} {:>9.3} {:>5} {:>10} {:>13}\n",
                r.variant.label(),
                if r.survived { "yes" } else { "NO" },
                r.position_drift_m,
                r.rows_scanned,
                r.rows_delivered,
                r.packets_dropped
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_radio_off_beats_every_active_frequency() {
        let fig = fig5::run(7);
        assert_eq!(fig.series.len(), 7);
        let off = fig.series.last().unwrap();
        assert!(off.radio_mhz.is_none());
        for s in &fig.series[..6] {
            assert!(
                off.total() > s.total(),
                "radio off ({}) must detect more than {:?} ({})",
                off.total(),
                s.radio_mhz,
                s.total()
            );
        }
        let txt = fig5::render(&fig);
        assert!(txt.contains("OFF"));
        assert!(txt.contains("2400 MHz"));
    }

    #[test]
    fn fig5_co_channel_suppression_is_localized() {
        // A 2450 MHz carrier lands inside channels 7-10 and should wipe
        // them out; a 2525 MHz carrier (above the Wi-Fi band) only causes
        // broadband desense there. Sum over seeds to damp scan noise.
        let mut mid_band_2450 = 0.0;
        let mut mid_band_2525 = 0.0;
        for seed in 11..14 {
            let fig = fig5::run(seed);
            let at = |mhz: f64| {
                fig.series
                    .iter()
                    .find(|s| s.radio_mhz == Some(mhz))
                    .unwrap()
                    .clone()
            };
            mid_band_2450 += at(2450.0).mean_per_channel[6..10].iter().sum::<f64>();
            mid_band_2525 += at(2525.0).mean_per_channel[6..10].iter().sum::<f64>();
        }
        assert!(
            mid_band_2450 < mid_band_2525,
            "2450 MHz carrier should suppress ch7-10 harder: {mid_band_2450} vs {mid_band_2525}"
        );
    }

    #[test]
    fn endurance_render_contains_paper_reference() {
        let r = endurance::run(3);
        let txt = endurance::render(&r);
        assert!(txt.contains("06:12"));
        assert!(r.scans_completed > 20);
    }

    #[test]
    fn loc_sweep_renders() {
        let rows = loc::run(5);
        assert_eq!(rows.len(), 5);
        let txt = loc::render(&rows);
        assert!(txt.contains("anchors"));
    }

    #[test]
    fn queue_ablation_headline() {
        let rows = queue::run(9);
        let txt = queue::render(&rows);
        assert!(txt.contains("stock 2021.06"));
        // Stock dies; full patch survives and delivers all rows.
        assert!(!rows[0].survived);
        let full = rows.last().unwrap();
        assert!(full.survived);
        assert_eq!(full.rows_delivered, full.rows_scanned);
    }
}

/// Future-work experiment: waypoint density vs REM quality.
///
/// The paper's conclusion proposes "deriving the fundamental limitations on
/// the density of 3D REMs". This sweep varies the waypoint count (scaling
/// the fleet so each UAV stays within its battery budget), trains the best
/// kNN on each dataset, and scores it against the hidden ground-truth
/// surface at unvisited positions.
pub mod density {
    use aerorem_core::models::ModelKind;
    use aerorem_core::pipeline::{PipelineConfig, RemPipeline};
    use aerorem_mission::campaign::CampaignConfig;
    use aerorem_mission::plan::FleetPlan;
    use aerorem_ml::MlError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One row of the density sweep.
    #[derive(Debug, Clone, PartialEq)]
    pub struct DensityRow {
        /// Total waypoints flown.
        pub waypoints: usize,
        /// UAVs used (each ≤ 36 waypoints, the battery budget).
        pub fleet: usize,
        /// Samples collected.
        pub samples: usize,
        /// RMSE against the hidden ground-truth surface, dB.
        pub ground_truth_rmse_db: f64,
        /// Total campaign time, seconds.
        pub campaign_secs: f64,
    }

    /// Runs the sweep over the given waypoint counts.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    pub fn run(waypoint_counts: &[usize], seed: u64) -> Result<Vec<DensityRow>, MlError> {
        let mut rows = Vec::new();
        for &waypoints in waypoint_counts {
            // One UAV per 36 waypoints: the endurance budget of §III-A.
            let fleet = waypoints.div_ceil(36).max(1);
            let config = PipelineConfig {
                campaign: CampaignConfig {
                    fleet_plan: FleetPlan {
                        fleet_size: fleet,
                        total_waypoints: waypoints,
                        ..FleetPlan::paper_demo()
                    },
                    ..CampaignConfig::paper_demo()
                },
                // Scale the paper's 16-sample retention bar down for
                // sparse missions, where no MAC can reach 16 detections.
                preprocess: aerorem_core::features::PreprocessConfig {
                    min_samples_per_mac: (waypoints / 4).clamp(4, 16),
                },
                eval_models: vec![ModelKind::KnnScaled16],
                ..PipelineConfig::paper_demo()
            };
            // Same world per sweep point: seed the world identically, vary
            // only the mission.
            let mut rng = StdRng::seed_from_u64(seed ^ 0xDE45);
            let result = RemPipeline::new(config).run(&mut rng)?;
            let mut eval_rng = StdRng::seed_from_u64(seed ^ 0xEA15);
            let rmse = result.ground_truth_rmse(150, &mut eval_rng)?;
            rows.push(DensityRow {
                waypoints,
                fleet,
                samples: result.campaign.samples.len(),
                ground_truth_rmse_db: rmse,
                campaign_secs: result.campaign.total_time.as_secs_f64(),
            });
        }
        Ok(rows)
    }

    /// Renders the sweep.
    pub fn render(rows: &[DensityRow]) -> String {
        let mut out = String::from(
            "REM density sweep (future work: density limits)\n\
             waypoints  fleet  samples  GT-RMSE[dB]  campaign[s]\n",
        );
        for r in rows {
            out.push_str(&format!(
                "{:>9} {:>6} {:>8} {:>12.2} {:>12.0}\n",
                r.waypoints, r.fleet, r.samples, r.ground_truth_rmse_db, r.campaign_secs
            ));
        }
        out
    }
}

/// Fleet-scaling experiment: "the system can be scaled by simply adding
/// sets of waypoints" (§III-A).
///
/// Runs the 72-waypoint demo with fleets of different sizes. A single UAV
/// cannot finish 72 waypoints on one battery — the leg aborts when the pack
/// goes erratic — which is precisely why the paper flies two.
pub mod fleet {
    use aerorem_mission::campaign::{Campaign, CampaignConfig};
    use aerorem_mission::plan::FleetPlan;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One row of the fleet sweep.
    #[derive(Debug, Clone, PartialEq)]
    pub struct FleetRow {
        /// UAVs flown sequentially.
        pub fleet: usize,
        /// Waypoints visited across the fleet (of 72 planned).
        pub waypoints_visited: usize,
        /// Legs that ended on a battery abort.
        pub battery_aborts: usize,
        /// Samples collected.
        pub samples: usize,
        /// Total campaign time, seconds (including battery-swap gaps).
        pub campaign_secs: f64,
    }

    /// Runs the sweep over fleet sizes.
    pub fn run(fleet_sizes: &[usize], seed: u64) -> Vec<FleetRow> {
        fleet_sizes
            .iter()
            .map(|&fleet| {
                let config = CampaignConfig {
                    fleet_plan: FleetPlan {
                        fleet_size: fleet,
                        ..FleetPlan::paper_demo()
                    },
                    ..CampaignConfig::paper_demo()
                };
                let mut rng = StdRng::seed_from_u64(seed ^ 0xF1EE7);
                let report = Campaign::new(config).run(&mut rng);
                FleetRow {
                    fleet,
                    waypoints_visited: report.legs.iter().map(|l| l.waypoints_visited).sum(),
                    battery_aborts: report
                        .legs
                        .iter()
                        .filter(|l| l.aborted_on_battery)
                        .count(),
                    samples: report.samples.len(),
                    campaign_secs: report.total_time.as_secs_f64(),
                }
            })
            .collect()
    }

    /// Renders the sweep.
    pub fn render(rows: &[FleetRow]) -> String {
        let mut out = String::from(
            "Fleet scaling over the 72-waypoint demo\n\
             fleet  visited/72  battery aborts  samples  campaign[s]\n",
        );
        for r in rows {
            out.push_str(&format!(
                "{:>5} {:>11} {:>15} {:>8} {:>12.0}\n",
                r.fleet, r.waypoints_visited, r.battery_aborts, r.samples, r.campaign_secs
            ));
        }
        out
    }
}

/// Future-work experiment: Lighthouse vs UWB localization (§IV).
///
/// The conclusion proposes replacing UWB with Bitcraze's Lighthouse system,
/// "which features comparable precision, while requiring less anchors and
/// being cheaper" — and which vacates the 2.4 GHz band entirely. This
/// experiment pits 2 Lighthouse base stations against 4–8 UWB anchors on
/// the same hover task.
pub mod lighthouse_cmp {
    use aerorem_localization::anchors::AnchorConstellation;
    use aerorem_localization::eval::hover_rmse;
    use aerorem_localization::lighthouse::LighthouseSystem;
    use aerorem_localization::{Ekf, RangingConfig, RangingMode};
    use aerorem_spatial::{Aabb, Vec3};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One compared system.
    #[derive(Debug, Clone, PartialEq)]
    pub struct SystemRow {
        /// Description, e.g. `"UWB TWR, 6 anchors"`.
        pub system: String,
        /// Infrastructure devices needed.
        pub infrastructure: usize,
        /// Hover RMSE in meters.
        pub rmse_m: f64,
        /// Whether it occupies the 2.4 GHz ISM band (self-interference with
        /// the Wi-Fi REM receiver).
        pub occupies_2g4: bool,
    }

    /// Runs the comparison at the endurance hover point.
    pub fn run(seed: u64) -> Vec<SystemRow> {
        let volume = Aabb::paper_volume();
        let truth = Vec3::new(1.87, 1.60, 1.0);
        let anchors = AnchorConstellation::volume_corners(volume);
        let mut rows = Vec::new();
        for n in [4usize, 6, 8] {
            for mode in [RangingMode::Twr, RangingMode::Tdoa] {
                let cfg = RangingConfig::lps_default(mode);
                let rmse = hover_rmse(&anchors.take(n), &cfg, truth, 400, seed ^ n as u64);
                rows.push(SystemRow {
                    system: format!("UWB {mode:?}, {n} anchors"),
                    infrastructure: n,
                    rmse_m: rmse,
                    // UWB itself is not 2.4 GHz, but the paper notes the
                    // *control* radio shares the band; the UWB system is
                    // out-of-band for the Wi-Fi receiver.
                    occupies_2g4: false,
                });
            }
        }
        // Lighthouse: 2 base stations, infrared — nothing in any RF band.
        let sys = LighthouseSystem::two_station(volume);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x11F);
        let mut ekf = Ekf::new(truth + Vec3::splat(0.25), 0.5);
        let mut errs = Vec::new();
        for step in 0..400 {
            ekf.predict(0.01);
            let meas = sys.measure(truth, &mut rng);
            sys.update_ekf(&mut ekf, &meas).expect("stations valid");
            if step >= 100 {
                errs.push(ekf.position().distance(truth));
            }
        }
        let rmse = (errs.iter().map(|e| e * e).sum::<f64>() / errs.len() as f64).sqrt();
        rows.push(SystemRow {
            system: "Lighthouse, 2 base stations".to_string(),
            infrastructure: 2,
            rmse_m: rmse,
            occupies_2g4: false,
        });
        rows
    }

    /// Renders the comparison.
    pub fn render(rows: &[SystemRow]) -> String {
        let mut out = String::from(
            "Localization system comparison (future work: Lighthouse)\n\
             system                        devices  hover RMSE [m]\n",
        );
        for r in rows {
            out.push_str(&format!(
                "{:<29} {:>7} {:>15.3}\n",
                r.system, r.infrastructure, r.rmse_m
            ));
        }
        out
    }
}

/// Ablation: shadowing decorrelation distance vs REM predictability.
///
/// The whole premise of REM interpolation is that shadow fading is
/// spatially correlated — nearby samples share the same obstructions. This
/// sweep regenerates the world with different Gudmundson decorrelation
/// distances and measures how well a kNN trained on the 72-waypoint lattice
/// predicts held-out positions. Short correlation → noise-like shadowing →
/// interpolation cannot work; long correlation → smooth fields → easy.
pub mod shadow {
    use aerorem_ml::knn::KnnRegressor;
    use aerorem_ml::Regressor;
    use aerorem_numerics::stats;
    use aerorem_propagation::building::SyntheticBuilding;
    use aerorem_spatial::grid::WaypointGrid;
    use aerorem_spatial::Aabb;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One row of the sweep.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ShadowRow {
        /// Decorrelation distance in meters.
        pub correlation_m: f64,
        /// kNN RMSE against the mean-RSS surface at held-out points, dB.
        pub rmse_db: f64,
    }

    /// Runs the sweep over decorrelation distances.
    pub fn run(correlations_m: &[f64], seed: u64) -> Vec<ShadowRow> {
        let volume = Aabb::paper_volume();
        let train_grid = WaypointGrid::even(volume, 72).expect("72 waypoints");
        correlations_m
            .iter()
            .map(|&corr| {
                let mut cfg = SyntheticBuilding::paper_like();
                cfg.shadowing = (3.2, corr);
                let mut rng = StdRng::seed_from_u64(seed ^ 0x5AAD);
                let env = cfg.generate(volume, &mut rng);
                // Evaluate per audible AP on xyz features.
                let mut all_pred = Vec::new();
                let mut all_true = Vec::new();
                for ap in env.access_points().iter().take(24) {
                    let x: Vec<Vec<f64>> = train_grid
                        .iter()
                        .map(|p| vec![p.x, p.y, p.z])
                        .collect();
                    let y: Vec<f64> =
                        train_grid.iter().map(|p| env.mean_rss(ap, *p)).collect();
                    if y.iter().all(|&v| v < -92.0) {
                        continue; // inaudible AP
                    }
                    let mut knn = KnnRegressor::paper_tuned();
                    knn.fit(&x, &y).expect("valid training data");
                    for _ in 0..12 {
                        let q = volume.lerp_point(rng.gen(), rng.gen(), rng.gen());
                        all_pred
                            .push(knn.predict_one(&[q.x, q.y, q.z]).expect("fitted"));
                        all_true.push(env.mean_rss(ap, q));
                    }
                }
                ShadowRow {
                    correlation_m: corr,
                    rmse_db: stats::rmse(&all_pred, &all_true),
                }
            })
            .collect()
    }

    /// Renders the sweep.
    pub fn render(rows: &[ShadowRow]) -> String {
        let mut out = String::from(
            "Shadowing-correlation ablation (kNN on the 72-point lattice)\n\
             decorrelation [m]  RMSE [dB]\n",
        );
        for r in rows {
            out.push_str(&format!(
                "{:>17.1} {:>10.2}\n",
                r.correlation_m, r.rmse_db
            ));
        }
        out
    }
}

/// Design-decision experiment: sequential vs concurrent UAV operation.
///
/// §III-A: "To mitigate interference among UAVs, the UAVs are run in a
/// sequence, not jointly." This experiment quantifies that choice: the
/// same two-leg mission flown (a) sequentially as in the paper, and (b)
/// "concurrently", where the *other* UAV's Crazyradio stays on the air
/// during every scan.
pub mod sequential {
    use aerorem_localization::{AnchorConstellation, RangingConfig, RangingMode};
    use aerorem_mission::basestation::BaseStationClient;
    use aerorem_mission::plan::FleetPlan;
    use aerorem_propagation::building::SyntheticBuilding;
    use aerorem_radio::Crazyradio;
    use aerorem_simkit::SimTime;
    use aerorem_spatial::{Aabb, Vec3};
    use aerorem_uav::firmware::FirmwareConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Outcome of one scheduling strategy.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ScheduleRow {
        /// `"sequential"` or `"concurrent"`.
        pub schedule: &'static str,
        /// Total samples recovered across both legs.
        pub samples: usize,
    }

    /// Runs both schedules over the same 24-waypoint world.
    pub fn run(seed: u64) -> Vec<ScheduleRow> {
        let volume = Aabb::paper_volume();
        let plan = FleetPlan {
            fleet_size: 2,
            total_waypoints: 24,
            ..FleetPlan::paper_demo()
        }
        .expand(volume)
        .expect("valid plan");
        let firmware = FirmwareConfig::paper_patched();
        let ranging = RangingConfig::lps_default(RangingMode::Tdoa);
        let radio_pos = Vec3::new(-1.5, 1.6, 0.8);

        let fly = |background: bool, rng: &mut StdRng| -> usize {
            let env = SyntheticBuilding::paper_like().generate(volume, rng);
            let mut total = 0usize;
            for leg in &plan.legs {
                let mut client =
                    BaseStationClient::new(2450.0, radio_pos, firmware, ranging);
                if background {
                    // The other UAV's dongle keeps polling on its own
                    // channel from the base-station table.
                    let other = Crazyradio::new(2475.0, radio_pos + Vec3::new(0.3, 0.0, 0.0))
                        .expect("in-band")
                        .interference()
                        .expect("transmitting");
                    client = client.with_background_interference(vec![other]);
                }
                let anchors = AnchorConstellation::volume_corners(volume);
                let (outcome, _) =
                    client.fly_leg(&plan, leg, &env, &anchors, SimTime::ZERO, rng);
                total += outcome.samples.len();
            }
            total
        };

        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E0);
        let seq = fly(false, &mut rng);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5E0);
        let conc = fly(true, &mut rng);
        vec![
            ScheduleRow {
                schedule: "sequential",
                samples: seq,
            },
            ScheduleRow {
                schedule: "concurrent",
                samples: conc,
            },
        ]
    }

    /// Renders the comparison.
    pub fn render(rows: &[ScheduleRow]) -> String {
        let mut out = String::from(
            "Sequential vs concurrent UAV operation (24 waypoints, 2 UAVs)\n\
             schedule     samples\n",
        );
        for r in rows {
            out.push_str(&format!("{:<12} {:>7}\n", r.schedule, r.samples));
        }
        out
    }
}

/// Extension experiment: uncertainty-driven adaptive resurvey.
///
/// After a partial initial survey (a coarse first leg that covers only
/// part of the volume — the realistic shape of an interrupted or
/// battery-limited first pass), where should the UAV go next? This
/// experiment compares two follow-up strategies with the same budget:
/// waypoints chosen by uncertainty-mass capture over the kriging
/// confidence maps (`aerorem_core::adaptive`) vs uniformly random
/// waypoints. Both follow-up legs are actually flown; the final REMs are
/// scored against the hidden ground truth over the *full* volume, so a
/// strategy that never visits the unsurveyed region pays for it.
pub mod adaptive {
    use aerorem_core::adaptive::select_uncertain_waypoints;
    use aerorem_core::features::{preprocess, PreprocessConfig};
    use aerorem_core::models::ModelKind;
    use aerorem_core::rem::RemGrid;
    use aerorem_localization::{AnchorConstellation, RangingConfig, RangingMode};
    use aerorem_mission::basestation::BaseStationClient;
    use aerorem_mission::plan::{FleetPlan, UavLeg};
    use aerorem_mission::SampleSet;
    use aerorem_ml::kriging::{KrigingConfig, OrdinaryKriging};
    use aerorem_ml::{MlError, Regressor};
    use aerorem_propagation::building::SyntheticBuilding;
    use aerorem_propagation::RadioEnvironment;
    use aerorem_simkit::SimTime;
    use aerorem_spatial::{Aabb, Vec3};
    use aerorem_uav::firmware::FirmwareConfig;
    use aerorem_uav::UavId;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Follow-up waypoints per strategy.
    pub const FOLLOW_UP_WAYPOINTS: usize = 12;

    /// One strategy's outcome.
    #[derive(Debug, Clone, PartialEq)]
    pub struct StrategyRow {
        /// `"initial"`, `"adaptive"`, or `"random"`.
        pub strategy: &'static str,
        /// Samples available to the model after this stage.
        pub samples: usize,
        /// RMSE against the hidden mean-RSS surface.
        pub ground_truth_rmse_db: f64,
    }

    fn ground_truth_rmse(
        samples: &SampleSet,
        env: &RadioEnvironment,
        volume: Aabb,
        seed: u64,
    ) -> Result<f64, MlError> {
        let (data, layout, _) = preprocess(
            samples,
            &PreprocessConfig {
                min_samples_per_mac: 6,
            },
        )?;
        let mut model = ModelKind::KnnScaled16.build(&layout)?;
        model.fit(&data.x, &data.y)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut se = 0.0;
        let mut count = 0usize;
        for _ in 0..120 {
            let p = volume.lerp_point(rng.gen(), rng.gen(), rng.gen());
            for mac in layout.macs() {
                let Some(ap) = env.access_point(mac) else { continue };
                let truth = env.mean_rss(ap, p);
                if truth < -90.0 {
                    continue;
                }
                let row = layout.encode_query(p, mac)?;
                let pred = model.predict_one(&row)?;
                se += (pred - truth) * (pred - truth);
                count += 1;
            }
        }
        Ok((se / count.max(1) as f64).sqrt())
    }

    /// Runs the comparison.
    ///
    /// # Errors
    ///
    /// Propagates preprocessing/estimator errors.
    pub fn run(seed: u64) -> Result<Vec<StrategyRow>, MlError> {
        let volume = Aabb::paper_volume();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xADA9);
        let env = SyntheticBuilding::paper_like().generate(volume, &mut rng);
        let anchors = AnchorConstellation::volume_corners(volume);
        let firmware = FirmwareConfig::paper_patched();
        let ranging = RangingConfig::lps_default(RangingMode::Tdoa);
        let mut client =
            BaseStationClient::new(2450.0, Vec3::new(-1.5, 1.6, 0.8), firmware, ranging);

        // --- Initial partial survey: 16 waypoints over half of the volume
        // (a coarse first pass that ran out of battery before the far end).
        let size = volume.size();
        let surveyed = Aabb::new(
            volume.min(),
            Vec3::new(
                volume.min().x + 0.5 * size.x,
                volume.max().y,
                volume.max().z,
            ),
        )
        .expect("non-degenerate partial volume");
        let plan = FleetPlan {
            fleet_size: 1,
            total_waypoints: 16,
            ..FleetPlan::paper_demo()
        }
        .expand(surveyed)
        .expect("valid plan");
        let (initial, _) =
            client.fly_leg(&plan, &plan.legs[0], &env, &anchors, SimTime::ZERO, &mut rng);
        let initial_samples = initial.samples.clone();

        // --- Confidence maps from the initial data (5 strongest MACs). ---
        let (data, layout, _) = preprocess(
            &initial_samples,
            &PreprocessConfig {
                min_samples_per_mac: 6,
            },
        )?;
        let mut ok = OrdinaryKriging::new(KrigingConfig::default());
        ok.fit(&data.x, &data.y)?;
        let sigma_grids: Vec<RemGrid> = layout
            .macs()
            .into_iter()
            .take(5)
            .map(|mac| {
                RemGrid::generate_with_confidence(&ok, &layout, volume, 0.4, mac)
                    .map(|(_, sigma)| sigma)
            })
            .collect::<Result<_, _>>()?;

        // --- Follow-up legs: adaptive vs random, same budget. ---
        let adaptive_wps = select_uncertain_waypoints(&sigma_grids, FOLLOW_UP_WAYPOINTS, 0.5);
        let mut random_rng = StdRng::seed_from_u64(seed ^ 0x2A4D);
        let random_wps: Vec<Vec3> = (0..FOLLOW_UP_WAYPOINTS)
            .map(|_| {
                volume.lerp_point(random_rng.gen(), random_rng.gen(), random_rng.gen())
            })
            .collect();

        let mut fly_follow_up = |wps: Vec<Vec3>, rng: &mut StdRng| {
            let start = wps.first().copied().unwrap_or(volume.center());
            let leg = UavLeg {
                uav: UavId(1),
                radio_address_id: 2,
                start: Vec3::new(start.x, start.y, volume.min().z),
                yaw: 0.0,
                waypoints: wps,
                waypoint_offset: 0,
            };
            let (outcome, _) =
                client.fly_leg(&plan, &leg, &env, &anchors, SimTime::ZERO, rng);
            outcome.samples
        };
        // Clone the RNG state so both strategies see identical stochasticity.
        let mut rng_a = StdRng::seed_from_u64(seed ^ 0xF01);
        let mut rng_b = StdRng::seed_from_u64(seed ^ 0xF01);
        let adaptive_extra = fly_follow_up(adaptive_wps, &mut rng_a);
        let random_extra = fly_follow_up(random_wps, &mut rng_b);

        let mut adaptive_set = initial_samples.clone();
        adaptive_set.merge(adaptive_extra);
        let mut random_set = initial_samples.clone();
        random_set.merge(random_extra);

        Ok(vec![
            StrategyRow {
                strategy: "initial",
                samples: initial_samples.len(),
                ground_truth_rmse_db: ground_truth_rmse(&initial_samples, &env, volume, seed)?,
            },
            StrategyRow {
                strategy: "adaptive",
                samples: adaptive_set.len(),
                ground_truth_rmse_db: ground_truth_rmse(&adaptive_set, &env, volume, seed)?,
            },
            StrategyRow {
                strategy: "random",
                samples: random_set.len(),
                ground_truth_rmse_db: ground_truth_rmse(&random_set, &env, volume, seed)?,
            },
        ])
    }

    /// Renders the comparison.
    pub fn render(rows: &[StrategyRow]) -> String {
        let mut out = String::from(
            "Adaptive resurvey: 16 initial waypoints + 12 follow-ups\n\
             strategy   samples  GT-RMSE[dB]\n",
        );
        for r in rows {
            out.push_str(&format!(
                "{:<10} {:>7} {:>12.2}\n",
                r.strategy, r.samples, r.ground_truth_rmse_db
            ));
        }
        out
    }
}

/// Ablation: ranging rate vs localization error, with and without IMU
/// aiding.
///
/// §II-B's estimator fuses UWB with the IMU (Mueller et al.). At the demo's
/// 100 Hz ranging rate the blind constant-velocity filter is fine; this
/// sweep shows where the IMU becomes load-bearing: sparse fixes during a
/// maneuver.
pub mod imurate {
    use aerorem_localization::anchors::AnchorConstellation;
    use aerorem_localization::imu::{Imu, ImuConfig};
    use aerorem_localization::{Ekf, RangingConfig, RangingMode};
    use aerorem_spatial::{Aabb, Vec3};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One row of the sweep.
    #[derive(Debug, Clone, PartialEq)]
    pub struct ImuRateRow {
        /// Ranging fixes per second.
        pub fix_hz: f64,
        /// Worst-case position error without IMU aiding, meters.
        pub blind_worst_m: f64,
        /// Worst-case position error with IMU aiding, meters.
        pub aided_worst_m: f64,
    }

    fn maneuver_worst(fix_every: usize, use_imu: bool, seed: u64) -> f64 {
        let anchors = AnchorConstellation::volume_corners(Aabb::paper_volume());
        let cfg = RangingConfig::lps_default(RangingMode::Twr);
        let var = cfg.noise_std_m * cfg.noise_std_m;
        let mut rng = StdRng::seed_from_u64(seed);
        let imu = Imu::new(ImuConfig::crazyflie_bmi088(), &mut rng);
        let accel = Vec3::new(0.8, -0.5, 0.15);
        let dt = 0.01;
        let mut truth_pos = Vec3::new(0.5, 2.5, 0.5);
        let mut truth_vel = Vec3::ZERO;
        let mut ekf = Ekf::new(truth_pos, 1.0);
        let mut worst: f64 = 0.0;
        for step in 0..400 {
            truth_vel += accel * dt;
            truth_pos += truth_vel * dt;
            if use_imu {
                let meas = imu.measure(accel, &mut rng);
                ekf.predict_with_accel(dt, meas, 0.15);
            } else {
                ekf.predict(dt);
            }
            if step % fix_every == 0 {
                let meas = cfg.measure(&anchors, truth_pos, &mut rng);
                let _ = ekf.update_ranging(&anchors, &meas, var);
            }
            if step > 100 {
                worst = worst.max(ekf.position().distance(truth_pos));
            }
        }
        worst
    }

    /// Runs the sweep over fix intervals (in 10 ms steps): 100, 10, 4, 2 Hz.
    pub fn run(seed: u64) -> Vec<ImuRateRow> {
        [1usize, 10, 25, 50]
            .iter()
            .map(|&every| ImuRateRow {
                fix_hz: 100.0 / every as f64,
                blind_worst_m: maneuver_worst(every, false, seed ^ 0x101),
                aided_worst_m: maneuver_worst(every, true, seed ^ 0x101),
            })
            .collect()
    }

    /// Renders the sweep.
    pub fn render(rows: &[ImuRateRow]) -> String {
        let mut out = String::from(
            "IMU aiding vs ranging rate (worst error during a maneuver)\n\
             fixes/s   blind [m]   IMU-aided [m]\n",
        );
        for r in rows {
            out.push_str(&format!(
                "{:>7.0} {:>10.3} {:>14.3}\n",
                r.fix_hz, r.blind_worst_m, r.aided_worst_m
            ));
        }
        out
    }
}

/// Robustness check: the headline statistics across independent worlds.
///
/// Every number in the paper comes from one apartment on one afternoon;
/// every number in this reproduction comes from one seed. This experiment
/// reruns the full campaign across several seeds and reports mean ± std of
/// the headline statistics, so the reader can see which conclusions are
/// stable and which are single-world luck.
pub mod montecarlo {
    use aerorem_numerics::stats;
    use aerorem_uav::UavId;

    /// Aggregate over seeds.
    #[derive(Debug, Clone, PartialEq)]
    pub struct MonteCarlo {
        /// Seeds evaluated.
        pub seeds: Vec<u64>,
        /// Total samples per seed.
        pub totals: Vec<f64>,
        /// UAV A minus UAV B sample counts per seed.
        pub ab_gaps: Vec<f64>,
        /// Mean RSS per seed, dBm.
        pub mean_rss: Vec<f64>,
        /// Distinct MACs per seed.
        pub macs: Vec<f64>,
    }

    /// Runs the full paper campaign once per seed.
    pub fn run(seeds: &[u64]) -> MonteCarlo {
        let mut mc = MonteCarlo {
            seeds: seeds.to_vec(),
            totals: Vec::new(),
            ab_gaps: Vec::new(),
            mean_rss: Vec::new(),
            macs: Vec::new(),
        };
        for &seed in seeds {
            let report = super::paper_campaign(seed);
            let counts = report.samples.counts_per_uav();
            mc.totals.push(report.samples.len() as f64);
            mc.ab_gaps.push(
                counts.get(&UavId(0)).copied().unwrap_or(0) as f64
                    - counts.get(&UavId(1)).copied().unwrap_or(0) as f64,
            );
            mc.mean_rss
                .push(report.samples.mean_rssi_dbm().unwrap_or(f64::NAN));
            mc.macs.push(report.samples.distinct_macs() as f64);
        }
        mc
    }

    fn fmt_row(name: &str, paper: &str, xs: &[f64]) -> String {
        format!(
            "{name:<18} {paper:>12} {:>10.1} ± {:<8.1}\n",
            stats::mean(xs).unwrap_or(f64::NAN),
            stats::std_dev(xs).unwrap_or(f64::NAN)
        )
    }

    /// Renders the aggregate table.
    pub fn render(mc: &MonteCarlo) -> String {
        let mut out = format!(
            "Campaign statistics over {} independent worlds (mean ± std)\n{:<18} {:>12} {:>10}\n",
            mc.seeds.len(),
            "statistic",
            "paper",
            "ours"
        );
        out.push_str(&fmt_row("total samples", "2696", &mc.totals));
        out.push_str(&fmt_row("A - B gap", "294", &mc.ab_gaps));
        out.push_str(&fmt_row("mean RSS [dBm]", "-73", &mc.mean_rss));
        out.push_str(&fmt_row("distinct MACs", "73", &mc.macs));
        out
    }
}

/// Tentpole instrumentation experiment: serial vs parallel end-to-end
/// pipeline timing.
///
/// Runs the paper's full demo pipeline twice with the same seed — once
/// under [`ExecPolicy::Serial`](aerorem_core::ExecPolicy::Serial), once
/// under [`ExecPolicy::Parallel`](aerorem_core::ExecPolicy::Parallel) — and
/// tabulates the per-stage wall-clock timings from the pipeline's built-in
/// instrumentation, including REM generation for the strongest MAC. The
/// two runs must produce identical model scores (the parallel paths are
/// deterministic); `run` asserts this, so the experiment doubles as an
/// end-to-end determinism check.
pub mod pipeline_timing {
    use aerorem_core::exec::ExecPolicy;
    use aerorem_core::instrument::Instrumentation;
    use aerorem_core::pipeline::{PipelineConfig, RemPipeline};
    use aerorem_ml::MlError;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One policy's instrumented run.
    #[derive(Debug, Clone)]
    pub struct PolicyRow {
        /// Which execution policy.
        pub policy: ExecPolicy,
        /// The pipeline's stage timings plus REM generation.
        pub instrumentation: Instrumentation,
    }

    /// Runs the demo pipeline under both policies.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    ///
    /// # Panics
    ///
    /// Panics if the serial and parallel runs disagree on any model score —
    /// that would be a determinism bug.
    pub fn run(seed: u64) -> Result<Vec<PolicyRow>, MlError> {
        let mut rows = Vec::new();
        let mut scores = Vec::new();
        for policy in [ExecPolicy::Serial, ExecPolicy::Parallel] {
            let mut rng = StdRng::seed_from_u64(seed);
            let result =
                RemPipeline::with_policy(PipelineConfig::paper_demo(), policy).run(&mut rng)?;
            let mut inst = result.instrumentation.clone();
            if let Some(mac) = result.strongest_mac() {
                let rem = inst.time("generate_rem", || result.generate_rem(mac))?;
                inst.count("rem_voxels", rem.len() as u64);
            }
            scores.push(result.scores.clone());
            rows.push(PolicyRow {
                policy,
                instrumentation: inst,
            });
        }
        assert_eq!(
            scores[0], scores[1],
            "serial and parallel pipelines must produce identical scores"
        );
        Ok(rows)
    }

    /// Renders the stage-by-stage comparison with per-stage speedups.
    pub fn render(rows: &[PolicyRow]) -> String {
        let mut out = String::from("End-to-end paper demo: serial vs parallel wall clock\n");
        for row in rows {
            if let Some(threads) = row.instrumentation.get_label("threads") {
                out.push_str(&format!("{}: {threads} thread(s)\n", row.policy));
            }
        }
        let [serial, parallel] = rows else {
            return out;
        };
        out.push_str(&format!(
            "{:<18} {:>12} {:>14} {:>9}\n",
            "stage", "serial [ms]", "parallel [ms]", "speedup"
        ));
        let mut lines = Vec::new();
        for (stage, sd) in serial.instrumentation.stages() {
            let Some(pd) = parallel.instrumentation.stage(stage) else {
                continue;
            };
            lines.push((stage.to_string(), sd, pd));
        }
        lines.push((
            "total".to_string(),
            serial.instrumentation.total(),
            parallel.instrumentation.total(),
        ));
        for (stage, sd, pd) in lines {
            let (s_ms, p_ms) = (sd.as_secs_f64() * 1e3, pd.as_secs_f64() * 1e3);
            let speedup = if p_ms > 0.0 { s_ms / p_ms } else { f64::NAN };
            out.push_str(&format!(
                "{stage:<18} {s_ms:>12.1} {p_ms:>14.1} {speedup:>8.2}x\n"
            ));
        }
        out
    }
}

/// Fault-recovery experiment: recovered vs lost waypoints under injected
/// fault rates.
///
/// Each row flies the same single-UAV campaign twice at the same seed —
/// once with the pre-recovery behaviour
/// ([`RetryPolicy::none`](aerorem_mission::recovery::RetryPolicy::none), no
/// re-flights) and once with the paper-default recovery stack (2-retry
/// policy plus one tail re-flight) — under a deterministic receiver-fault
/// schedule of increasing severity. The table reports how many waypoints
/// actually yielded samples and what the transport still lost, backing the
/// EXPERIMENTS.md recovered-vs-lost table.
pub mod faults {
    use std::collections::BTreeSet;

    use aerorem_mission::campaign::{Campaign, CampaignConfig, CampaignReport};
    use aerorem_mission::plan::FleetPlan;
    use aerorem_mission::recovery::{RetryPolicy, ScanFaultInjection};
    use aerorem_simkit::SimDuration;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// One fault schedule's baseline-vs-recovery comparison.
    #[derive(Debug, Clone)]
    pub struct FaultRow {
        /// Human-readable schedule label.
        pub label: &'static str,
        /// The injected schedule (`None` = healthy hardware).
        pub injection: Option<ScanFaultInjection>,
        /// Waypoints that yielded samples without any recovery machinery.
        pub baseline_sampled: usize,
        /// Samples collected without any recovery machinery.
        pub baseline_samples: usize,
        /// Waypoints that yielded samples with retries + re-flights.
        pub recovered_sampled: usize,
        /// Samples collected with retries + re-flights.
        pub recovered_samples: usize,
        /// Scans saved by a retry in the recovery run.
        pub scans_recovered: u64,
        /// Rows still lost outright in the recovery run.
        pub rows_lost: u64,
        /// Rows quarantined at fragment gaps in the recovery run.
        pub rows_corrupted: u64,
    }

    /// The swept schedules: healthy, a transient fault, a sticky fault the
    /// retry budget covers, and a sticky fault that defeats it.
    pub const SCHEDULES: [(&str, Option<ScanFaultInjection>); 4] = [
        ("healthy", None),
        (
            "1-in-5 transient",
            Some(ScanFaultInjection { period: 5, burst: 1 }),
        ),
        (
            "2-in-5 sticky",
            Some(ScanFaultInjection { period: 5, burst: 2 }),
        ),
        (
            "3-in-4 sticky",
            Some(ScanFaultInjection { period: 4, burst: 3 }),
        ),
    ];

    fn config(
        recovering: bool,
        injection: Option<ScanFaultInjection>,
        waypoints: usize,
    ) -> CampaignConfig {
        CampaignConfig {
            fleet_plan: FleetPlan {
                fleet_size: 1,
                total_waypoints: waypoints,
                travel_time: SimDuration::from_secs(2),
                scan_time: SimDuration::from_secs(2),
            },
            scan_fault_injection: injection,
            retry_policy: if recovering {
                RetryPolicy::paper_default()
            } else {
                RetryPolicy::none()
            },
            max_leg_reflights: usize::from(recovering),
            ..CampaignConfig::paper_demo()
        }
    }

    fn sampled_waypoints(report: &CampaignReport) -> usize {
        report
            .samples
            .iter()
            .map(|s| s.waypoint_index)
            .collect::<BTreeSet<_>>()
            .len()
    }

    /// Runs the sweep at its default size (12 waypoints per campaign).
    pub fn run(seed: u64) -> Vec<FaultRow> {
        run_with(seed, 12, &SCHEDULES)
    }

    /// Runs the sweep over explicit schedules and campaign size.
    pub fn run_with(
        seed: u64,
        waypoints: usize,
        schedules: &[(&'static str, Option<ScanFaultInjection>)],
    ) -> Vec<FaultRow> {
        schedules
            .iter()
            .map(|&(label, injection)| {
                let baseline = Campaign::new(config(false, injection, waypoints))
                    .run(&mut StdRng::seed_from_u64(seed));
                let recovered = Campaign::new(config(true, injection, waypoints))
                    .run(&mut StdRng::seed_from_u64(seed));
                let sum = |f: fn(&aerorem_mission::basestation::LegOutcome) -> u64| {
                    recovered.legs.iter().map(f).sum::<u64>()
                };
                FaultRow {
                    label,
                    injection,
                    baseline_sampled: sampled_waypoints(&baseline),
                    baseline_samples: baseline.samples.len(),
                    recovered_sampled: sampled_waypoints(&recovered),
                    recovered_samples: recovered.samples.len(),
                    scans_recovered: sum(|l| l.scans_recovered),
                    rows_lost: sum(|l| l.rows_lost),
                    rows_corrupted: sum(|l| l.rows_corrupted),
                }
            })
            .collect()
    }

    /// Renders the recovered-vs-lost table.
    pub fn render(rows: &[FaultRow]) -> String {
        let mut out = String::from(
            "Fault recovery: sampled waypoints and samples, no-recovery vs retries+re-flight\n\
             schedule           wp(base)  wp(rec)  samples(base)  samples(rec)  saved  lost  quarantined\n",
        );
        for r in rows {
            out.push_str(&format!(
                "{:<18} {:>8} {:>8} {:>14} {:>13} {:>6} {:>5} {:>12}\n",
                r.label,
                r.baseline_sampled,
                r.recovered_sampled,
                r.baseline_samples,
                r.recovered_samples,
                r.scans_recovered,
                r.rows_lost,
                r.rows_corrupted
            ));
        }
        out
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn recovery_never_loses_to_baseline() {
            // One transient schedule at a small size keeps the test fast.
            let rows = run_with(
                11,
                6,
                &[(
                    "1-in-3 transient",
                    Some(ScanFaultInjection { period: 3, burst: 1 }),
                )],
            );
            assert_eq!(rows.len(), 1);
            let r = &rows[0];
            assert!(r.scans_recovered > 0, "the schedule must fault");
            assert!(r.recovered_samples > r.baseline_samples);
            assert!(r.recovered_sampled >= r.baseline_sampled);
            let txt = render(&rows);
            assert!(txt.contains("1-in-3 transient"));
            assert!(txt.contains("saved"));
        }
    }
}
