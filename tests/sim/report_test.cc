/**
 * @file
 * Tests for the report layer: JSON string escaping (registry-named
 * schemes like `jigsaw+L"T"` must not break documents), chip-map
 * capture and rendering, the sink text plumbing, and the per-run
 * artifact exports.
 */

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/json.hh"
#include "sim/report.hh"
#include "sim/study.hh"
#include "sim/system.hh"

namespace cdcs
{
namespace
{

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndControlChars)
{
    EXPECT_EQ(jsonEscape("plain"), "plain");
    EXPECT_EQ(jsonEscape("jigsaw+L\"T\""), "jigsaw+L\\\"T\\\"");
    EXPECT_EQ(jsonEscape("a\\b"), "a\\\\b");
    EXPECT_EQ(jsonEscape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(jsonEscape(std::string("a\x01") + "b"), "a\\u0001b");
    EXPECT_EQ(jsonString("x\"y"), "\"x\\\"y\"");
}

SweepResult
tinySweep(const std::string &scheme_name)
{
    SweepResult sweep;
    SchemeSpec spec;
    spec.name = scheme_name;
    sweep.schemes = {spec};
    sweep.ws = {{1.0, 2.0}};
    sweep.firstRun.resize(1);
    sweep.onChipLat = {1.0};
    sweep.offChipLat = {2.0};
    sweep.trafficPerInstr = {{0.1, 0.2, 0.3}};
    sweep.energyPerInstr = {1e-9};
    sweep.energyParts = {{0, 0, 0, 0, 0}};
    return sweep;
}

TEST(ReportTest, SweepJsonEscapesSchemeNames)
{
    const SweepResult sweep = tinySweep("jigsaw+L\"T\"\n\\end");
    const std::string json = sweep.toJson();
    // The display name must appear fully escaped...
    EXPECT_NE(json.find("jigsaw+L\\\"T\\\"\\n\\\\end"),
              std::string::npos);
    // ...and no raw control characters may survive inside strings.
    EXPECT_EQ(json.find("L\"T"), std::string::npos);
}

TEST(ReportTest, StringSinkCapturesPrintf)
{
    StringReportSink sink;
    sink.printf("%-8s %5.2f\n", "abc", 1.5);
    EXPECT_EQ(sink.str(), "abc       1.50\n");
    // Long lines take the heap path without truncation.
    const std::string long_text(2000, 'x');
    sink.clear();
    sink.printf("%s", long_text.c_str());
    EXPECT_EQ(sink.str(), long_text);
}

TEST(ReportTest, ChipMapCaptureMatchesMeshAndRenders)
{
    SystemConfig cfg;
    cfg.meshWidth = 4;
    cfg.meshHeight = 4;
    cfg.bankLines = 1024;
    cfg.accessesPerThreadEpoch = 2000;
    cfg.epochs = 2;
    cfg.warmupEpochs = 1;
    System system(cfg, SchemeSpec::cdcs(),
                  buildMix(MixSpec::cpu(4, 11)));
    system.run();

    const ChipMap map = captureChipMap(system);
    EXPECT_EQ(map.width, 4);
    EXPECT_EQ(map.height, 4);
    ASSERT_EQ(map.threadLabel.size(), 16u);
    ASSERT_EQ(map.dataLabel.size(), 16u);

    StringReportSink sink;
    writeChipMap(sink, map);
    const std::string &text = sink.str();
    EXPECT_NE(text.find("thread placement"), std::string::npos);
    // Header line + one line per mesh row.
    int lines = 0;
    for (char c : text) {
        if (c == '\n')
            lines++;
    }
    EXPECT_EQ(lines, 1 + map.height);

    const std::string json = map.toJson();
    EXPECT_NE(json.find("\"width\": 4"), std::string::npos);
    EXPECT_NE(json.find("\"threadLabel\""), std::string::npos);
}

TEST(ReportTest, TextSinkExportsArtifactsWithMarkers)
{
    const std::string dir = ::testing::TempDir();
    std::FILE *stream = std::tmpfile();
    ASSERT_NE(stream, nullptr);
    {
        TextReportSink sink(stream, dir);
        sink.sweep("report_test_sweep", tinySweep("S-NUCA"));
        RunResult run;
        run.ipcTrace = {1.0, 2.5};
        run.ipcBinCycles = 1000;
        sink.artifact("report_test_trace", "trace",
                      traceToJson("report_test_trace", run));
        ChipMap map;
        map.width = map.height = 1;
        map.threadLabel = {"A0"};
        map.dataLabel = {"ap"};
        sink.artifact("report_test_map", "chipmap", map.toJson());
        sink.flush();
    }
    // Every artifact printed its marker line...
    std::rewind(stream);
    std::string text(4096, '\0');
    text.resize(std::fread(text.data(), 1, text.size(), stream));
    std::fclose(stream);
    EXPECT_NE(text.find("[json: " + dir), std::string::npos);
    EXPECT_NE(text.find("report_test_trace.json"),
              std::string::npos);
    EXPECT_NE(text.find("report_test_map.json"), std::string::npos);
    // ...and the files exist with content.
    std::FILE *f =
        std::fopen((dir + "/report_test_trace.json").c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string trace_json(512, '\0');
    trace_json.resize(
        std::fread(trace_json.data(), 1, trace_json.size(), f));
    std::fclose(f);
    EXPECT_NE(trace_json.find("\"binCycles\": 1000"),
              std::string::npos);
    EXPECT_NE(trace_json.find("2.5"), std::string::npos);
}

TEST(ReportTest, JsonAndCsvSinksExportArtifactFiles)
{
    // `jsonDir` works independently of the output format: the JSON
    // and CSV sinks write the artifact files too (just without the
    // text sink's marker lines — stdout carries the document/rows).
    const std::string dir = ::testing::TempDir();
    {
        std::FILE *stream = std::tmpfile();
        ASSERT_NE(stream, nullptr);
        JsonReportSink sink(stream, dir);
        sink.sweep("report_test_jsonsink", tinySweep("S-NUCA"));
        sink.finish();
        std::fclose(stream);
    }
    {
        std::FILE *stream = std::tmpfile();
        ASSERT_NE(stream, nullptr);
        CsvReportSink sink(stream, dir);
        sink.sweep("report_test_csvsink", tinySweep("S-NUCA"));
        RunResult run;
        run.ipcTrace = {0.5};
        sink.artifact("report_test_csvtrace", "trace",
                      traceToJson("report_test_csvtrace", run));
        sink.finish();
        std::fclose(stream);
    }
    for (const char *name : {"report_test_jsonsink",
                             "report_test_csvsink",
                             "report_test_csvtrace"}) {
        std::FILE *f = std::fopen(
            (dir + "/" + name + ".json").c_str(), "r");
        EXPECT_NE(f, nullptr) << name;
        if (f != nullptr)
            std::fclose(f);
    }
}

std::string
readStream(std::FILE *stream)
{
    std::rewind(stream);
    std::string out;
    char buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), stream)) > 0)
        out.append(buf, n);
    return out;
}

std::string
readFile(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        return "<missing>";
    std::string out = readStream(f);
    std::fclose(f);
    return out;
}

/**
 * One study through every artifact channel of `sink`: a sweep whose
 * mix-0 run sampled stats (so a metrics_trace_* artifact follows it),
 * a trace, a chip map, a NoC heatmap with one far link, a free-form
 * artifact and a timing footer. Every value is a short binary
 * fraction, so the %.17g renderings are exact.
 */
void
driveEveryChannel(ReportSink &sink)
{
    StudySpec spec;
    spec.name = "pin";
    spec.title = "Pin";
    spec.paperRef = "every channel";
    spec.category = "ablation";
    sink.beginStudy(spec);

    SweepResult sweep;
    SchemeSpec scheme;
    scheme.name = "S-NUCA";
    sweep.schemes = {scheme};
    sweep.ws = {{1.0, 1.0}};
    sweep.onChipLat = {1.5};
    sweep.offChipLat = {2.25};
    sweep.trafficPerInstr = {{0.5, 0.25, 0.125}};
    sweep.energyPerInstr = {0.75};
    sweep.energyParts = {{0.5, 0.25, 0, 0, 0}};
    sweep.firstRun.resize(1);
    RunResult &first = sweep.firstRun[0];
    first.statNames = {"llc.hits"};
    EpochRecord sampled;
    sampled.epoch = 1;
    sampled.activeThreads = 4;
    sampled.aggIpc = 1.5;
    sampled.stats = {7};
    EpochRecord skipped;
    skipped.epoch = 2;
    skipped.activeThreads = 3;
    skipped.churnDelta = -1;
    skipped.aggIpc = 0.5;
    skipped.placementMoves = 2;
    skipped.movedLines = 64;
    first.epochTrace = {sampled, skipped};
    sink.sweep("pin_sweep", sweep);

    RunResult run;
    run.ipcBinCycles = 1000;
    run.ipcTrace = {1.0, 2.5};
    sink.artifact("pin_trace", "trace", traceToJson("pin_trace", run));

    ChipMap map;
    map.width = 2;
    map.height = 1;
    map.threadLabel = {"A0", "--"};
    map.dataLabel = {"ap", ".."};
    sink.artifact("pin_map", "chipmap", map.toJson());

    NocHeatmap heat;
    heat.width = 2;
    heat.height = 1;
    NocLinkStat mesh_link;
    mesh_link.src = 0;
    mesh_link.dst = 1;
    mesh_link.flits = 10;
    mesh_link.util = 0.25;
    mesh_link.waitCycles = 0.5;
    NocLinkStat far_link;
    far_link.src = 1;
    far_link.memCtrl = 0;
    far_link.flits = 4;
    far_link.util = 0.125;
    far_link.waitCycles = 2.0;
    far_link.far = true;
    heat.links = {mesh_link, far_link};
    sink.artifact("pin_heat", "nocheatmap", heat.toJson());

    sink.artifact("pin_art", "artifact", "{\"k\": [1, 2]}");

    StudyTiming t;
    t.wallSec = 2.0;
    t.accessSec = 1.0;
    t.reconfigSec = 0.5;
    t.cacheIoSec = 0.25;
    t.poolSteals = 3;
    t.poolIdleSec = 0.125;
    sink.timing("pin", t);

    sink.endStudy(spec);
    sink.finish();
}

TEST(ReportTest, EverySinkPinsStdoutAndJsonDirBytes)
{
    const std::string sweep_json =
        "{\n"
        "  \"mixes\": 2,\n"
        "  \"schemes\": [\n"
        "    {\n"
        "      \"name\": \"S-NUCA\",\n"
        "      \"ws\": [1,1],\n"
        "      \"gmeanWs\": 1,\n"
        "      \"onChipLat\": 1.5,\n"
        "      \"offChipLat\": 2.25,\n"
        "      \"trafficPerInstr\": [0.5,0.25,0.125],\n"
        "      \"energyPerInstr\": 0.75,\n"
        "      \"energyParts\": {\"static\": 0.5, \"core\": 0.25, "
        "\"net\": 0, \"llc\": 0, \"mem\": 0}\n"
        "    }\n"
        "  ]\n"
        "}";
    const std::string metrics_json =
        "{\"schema\": \"cdcs-metrics-trace-v1\", \"scheme\": "
        "\"S-NUCA\", \"stats\": [\"llc.hits\"], \"trace\": ["
        "{\"epoch\": 1, \"active\": 4, \"delta\": 0, \"aggIpc\": 1.5, "
        "\"moves\": 0, \"movedLines\": 0, \"stats\": [7]}, "
        "{\"epoch\": 2, \"active\": 3, \"delta\": -1, \"aggIpc\": 0.5, "
        "\"moves\": 2, \"movedLines\": 64}]}";
    const std::string trace_json =
        "{\"name\": \"pin_trace\", \"binCycles\": 1000, "
        "\"ipc\": [1,2.5]}";
    const std::string map_json =
        "{\"width\": 2, \"height\": 1, \"threadLabel\": [\"A0\",\"--\"], "
        "\"dataLabel\": [\"ap\",\"..\"]}";
    const std::string heat_json =
        "{\"width\": 2, \"height\": 1, \"links\": ["
        "{\"src\": 0, \"dst\": 1, \"memCtrl\": -1, \"flits\": 10, "
        "\"util\": 0.25, \"wait\": 0.5},"
        "{\"src\": 1, \"dst\": -1, \"memCtrl\": 0, \"flits\": 4, "
        "\"util\": 0.125, \"wait\": 2, \"far\": true}]}";
    const std::string art_json = "{\"k\": [1, 2]}";
    // Export order, and the same bytes (one trailing newline) under
    // every sink's jsonDir.
    const std::vector<std::pair<std::string, std::string>> files = {
        {"pin_sweep", sweep_json},
        {"metrics_trace_pin_sweep_s-nuca", metrics_json},
        {"pin_trace", trace_json},
        {"pin_map", map_json},
        {"pin_heat", heat_json},
        {"pin_art", art_json},
    };

    const auto run_sink = [&](const char *flavor,
                              std::string *out_dir) {
        const std::string dir =
            ::testing::TempDir() + "report_pin_" + flavor;
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        *out_dir = dir;
        std::FILE *stream = std::tmpfile();
        EXPECT_NE(stream, nullptr);
        if (stream == nullptr)
            return std::string();
        if (std::string(flavor) == "text") {
            TextReportSink sink(stream, dir);
            driveEveryChannel(sink);
            sink.flush();
        } else if (std::string(flavor) == "json") {
            JsonReportSink sink(stream, dir);
            driveEveryChannel(sink);
        } else {
            CsvReportSink sink(stream, dir);
            driveEveryChannel(sink);
        }
        std::string out = readStream(stream);
        std::fclose(stream);
        return out;
    };

    std::string text_dir;
    const std::string text_out = run_sink("text", &text_dir);
    std::string expected_text;
    for (const auto &[name, json] : files)
        expected_text += "[json: " + text_dir + "/" + name + ".json]\n";
    expected_text +=
        "[timing: wall 2.000 s; access 1.000 s (50.0%), "
        "reconfig 0.500 s (25.0%), cache-io 0.250 s (12.5%); "
        "pool 3 steals, idle 0.125 s]\n";
    EXPECT_EQ(text_out, expected_text);

    std::string json_dir;
    const std::string json_out = run_sink("json", &json_dir);
    const std::string expected_json =
        "{\"studies\": [\n"
        "  {\"name\": \"pin\", \"title\": \"Pin\", \"paperRef\": "
        "\"every channel\", \"category\": \"ablation\", "
        "\"artifacts\": [\n"
        "   {\"name\": \"pin_sweep\", \"kind\": \"sweep\", \"data\": " +
        sweep_json + "},\n"
        "   {\"name\": \"metrics_trace_pin_sweep_s-nuca\", \"kind\": "
        "\"artifact\", \"data\": " + metrics_json + "},\n"
        "   {\"name\": \"pin_trace\", \"kind\": \"trace\", \"data\": " +
        trace_json + "},\n"
        "   {\"name\": \"pin_map\", \"kind\": \"chipmap\", \"data\": " +
        map_json + "},\n"
        "   {\"name\": \"pin_heat\", \"kind\": \"nocheatmap\", "
        "\"data\": " + heat_json + "},\n"
        "   {\"name\": \"pin_art\", \"kind\": \"artifact\", \"data\": " +
        art_json + "},\n"
        "   {\"name\": \"timing\", \"kind\": \"timing\", \"data\": "
        "{\"wallSec\": 2, \"accessSec\": 1, \"reconfigSec\": 0.5, "
        "\"cacheIoSec\": 0.25, \"poolSteals\": 3, "
        "\"poolIdleSec\": 0.125}}\n"
        "  ]}\n"
        "]}\n";
    EXPECT_EQ(json_out, expected_json);

    std::string csv_dir;
    const std::string csv_out = run_sink("csv", &csv_dir);
    EXPECT_EQ(csv_out,
              "study,sweep,scheme,mixes,gmeanWS,maxWS,onChipLat,"
              "offChipLat,trafficL2LLC,trafficLLCMem,trafficOther,"
              "energyPerInstr\n"
              "pin,pin_sweep,S-NUCA,2,1,1,1.5,2.25,0.5,0.25,0.125,"
              "0.75\n");

    for (const std::string &dir : {text_dir, json_dir, csv_dir}) {
        std::size_t exported = 0;
        for (const auto &entry :
             std::filesystem::directory_iterator(dir)) {
            (void)entry;
            exported++;
        }
        EXPECT_EQ(exported, files.size()) << dir;
        for (const auto &[name, json] : files) {
            EXPECT_EQ(readFile(dir + "/" + name + ".json"), json + "\n")
                << dir << " " << name;
        }
    }
}

TEST(ReportTest, TextSinkWithoutJsonDirEmitsNoMarkers)
{
    std::FILE *stream = std::tmpfile();
    ASSERT_NE(stream, nullptr);
    TextReportSink sink(stream, "");
    sink.sweep("unused", tinySweep("S-NUCA"));
    sink.flush();
    std::rewind(stream);
    char buf[64];
    EXPECT_EQ(std::fread(buf, 1, sizeof(buf), stream), 0u);
    std::fclose(stream);
}

} // anonymous namespace
} // namespace cdcs
