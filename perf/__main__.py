import sys

from perf.cli import main

sys.exit(main())
