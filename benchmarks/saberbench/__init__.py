"""saberbench: the one benchmark every performance claim in this repo is
measured with — six workloads, end-to-end metrics checked against an
independent oracle, and a per-layer traced pass.  See ``README.md``."""
