include Metrics
