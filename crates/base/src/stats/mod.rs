//! Statistics substrate: special functions for the PCM lifetime model and
//! summary statistics for workloads and experiment reporting.

pub mod hist;
pub mod normal;
pub mod order;
pub mod quantile;
pub mod summary;

pub use hist::{LatencyHistogram, WearHistogram};
pub use normal::{normal_cdf, normal_inv_cdf};
pub use order::OrderStatistics;
pub use quantile::QuantileSet;
pub use summary::{coefficient_of_variation, mean, percentile, variance, Histogram, Summary};
