VERSION = "0.1.0"
# the layout of every JSON report: experiment payloads and sign scans
SCHEMA_VERSION = 4
