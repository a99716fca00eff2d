// Parity pins for the exploration pipeline. Every row runs one request
// through run() and the equivalent one-bundle request through
// run_portfolio(), each on a fresh Explorer (the portfolio run second, so it
// sees the cache the first one warmed), and digests what a caller observes:
// the report's stable JSON (wall-clock timings dropped) followed by every
// phase-event payload (its `*_ms` fields dropped). The table was recorded
// while single-workload runs and portfolio runs still had separate pipeline
// bodies; the one body that replaced them must reproduce every digest. A run
// that throws records the hash of its error message instead. The three g721
// clubbing 4/2 rows were re-recorded when clubbing selection stopped keeping
// club pairs that depend on each other (the verify row used to throw).
//
// The matrix: the 12 registry kernels x six schemes x {4/2, 6/3} x Ninstr 4,
// each without emission, with bare AFU snapshots, and with rewrite
// verification plus the verilog/c-intrinsics/manifest targets. The last
// setting pins that a single report takes its AFUs from the verifying
// rewrite while a portfolio report's artifacts come from the pristine
// module. Graph-only rows and an ir_text twin of crc32 cover the other
// application kinds.
//
// A mismatch reports the re-recorded row in table syntax, ready to paste
// after a deliberate behaviour change.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "api/explorer.hpp"
#include "service/protocol.hpp"
#include "support/hash.hpp"
#include "text/workload_file.hpp"

namespace isex {
namespace {

struct Row {
  std::string key;        // "<application> <scheme> <nin>/<nout> <emission>"
  std::string single;     // digest of run()
  std::string portfolio;  // digest of the one-bundle run_portfolio()
};

// clang-format off
const Row kRows[] = {
    {"adpcmdecode iterative 4/2 none", "18f3da2327a6a78d", "db656e281963209c"},
    {"adpcmdecode iterative 4/2 build-afus", "793cc255ff0b4002", "throw:712003a4d70e7259"},
    {"adpcmdecode iterative 4/2 verify", "5fd5b871af4b2855", "07ade568a548c7d3"},
    {"adpcmdecode iterative 6/3 none", "ffba9ae363a2375e", "8d0dcde3a135f5a7"},
    {"adpcmdecode iterative 6/3 build-afus", "f4e194e6af604a51", "throw:712003a4d70e7259"},
    {"adpcmdecode iterative 6/3 verify", "056275d08c06f73a", "7d6624df7a584f15"},
    {"adpcmdecode optimal 4/2 none", "67256dcb61f00d6b", "ddaf6bcf01f0e273"},
    {"adpcmdecode optimal 4/2 build-afus", "82eac036140fbd1f", "throw:712003a4d70e7259"},
    {"adpcmdecode optimal 4/2 verify", "39ff89f9c60cba6a", "d807d1afbfa660f3"},
    {"adpcmdecode optimal 6/3 none", "d63ed7b2c8242135", "fe765c4a841aa276"},
    {"adpcmdecode optimal 6/3 build-afus", "c55512c67489b505", "throw:712003a4d70e7259"},
    {"adpcmdecode optimal 6/3 verify", "3f9138d1d4597ce9", "f1c3b336125ce06f"},
    {"adpcmdecode area 4/2 none", "ea7009e8ae87f422", "78f3af8c155000ca"},
    {"adpcmdecode area 4/2 build-afus", "c16308c5e8d19eb9", "throw:712003a4d70e7259"},
    {"adpcmdecode area 4/2 verify", "0608db0cb70287ee", "8511a7e7800830d2"},
    {"adpcmdecode area 6/3 none", "d79f794ad1be43df", "05b6ee77f81cf859"},
    {"adpcmdecode area 6/3 build-afus", "240cf66fea7b8229", "throw:712003a4d70e7259"},
    {"adpcmdecode area 6/3 verify", "5c8bad9768d02c96", "88f7521e6ac9ea0b"},
    {"adpcmdecode clubbing 4/2 none", "8564fbed57511646", "a66cfda53e35e9da"},
    {"adpcmdecode clubbing 4/2 build-afus", "2b66e6e8a9175f93", "throw:712003a4d70e7259"},
    {"adpcmdecode clubbing 4/2 verify", "847c7b736c60de13", "2c4afe8ff26f277c"},
    {"adpcmdecode clubbing 6/3 none", "326c88d3a18541b4", "9133bf2f612bc031"},
    {"adpcmdecode clubbing 6/3 build-afus", "d7b60f80b0795fd9", "throw:712003a4d70e7259"},
    {"adpcmdecode clubbing 6/3 verify", "5883bee367185ea8", "c221a8dd01f6a021"},
    {"adpcmdecode maxmiso 4/2 none", "cdef60fd5e2dee77", "2fa5bd169e12c2d0"},
    {"adpcmdecode maxmiso 4/2 build-afus", "336561192bd5efb9", "throw:712003a4d70e7259"},
    {"adpcmdecode maxmiso 4/2 verify", "124609de631d0432", "534337766287ff80"},
    {"adpcmdecode maxmiso 6/3 none", "86ece811d0a3ddb7", "86f42fe16e310173"},
    {"adpcmdecode maxmiso 6/3 build-afus", "173a7a31fa388432", "throw:712003a4d70e7259"},
    {"adpcmdecode maxmiso 6/3 verify", "8d74e31c3d7daa81", "87462ab552db4ed8"},
    {"adpcmdecode joint-iterative 4/2 none", "9a9cdb419efddb00", "9297b582c9482e2e"},
    {"adpcmdecode joint-iterative 4/2 build-afus", "3edece2556176e97", "throw:712003a4d70e7259"},
    {"adpcmdecode joint-iterative 4/2 verify", "6c2b7c3b0a446261", "c7c9ce72ee6fee23"},
    {"adpcmdecode joint-iterative 6/3 none", "97078c2e32bbf827", "4506d893c9368b19"},
    {"adpcmdecode joint-iterative 6/3 build-afus", "fdef722dba5a5c1c", "throw:712003a4d70e7259"},
    {"adpcmdecode joint-iterative 6/3 verify", "b92a811c5bfb7e75", "560c3164a5f7a5a9"},
    {"adpcmencode iterative 4/2 none", "396e39ad8a20ea26", "22579a49e9d21a64"},
    {"adpcmencode iterative 4/2 build-afus", "8e72236bea087062", "throw:712003a4d70e7259"},
    {"adpcmencode iterative 4/2 verify", "65c2410221a509e1", "dd0bf27703321384"},
    {"adpcmencode iterative 6/3 none", "007d264ec204e096", "617d023d78862995"},
    {"adpcmencode iterative 6/3 build-afus", "0040ab80e7e7a42b", "throw:712003a4d70e7259"},
    {"adpcmencode iterative 6/3 verify", "6be5fb1e6411269c", "0d756fe32da7cb78"},
    {"adpcmencode optimal 4/2 none", "4337f56df060b26c", "a72613db9a0e7c18"},
    {"adpcmencode optimal 4/2 build-afus", "b55f15048ebfa872", "throw:712003a4d70e7259"},
    {"adpcmencode optimal 4/2 verify", "62abeedbc1f90f34", "8bc50c17e8d3ba99"},
    {"adpcmencode optimal 6/3 none", "5089d96c99c90d68", "eb10377d46511961"},
    {"adpcmencode optimal 6/3 build-afus", "ab570ff68d1b9da9", "throw:712003a4d70e7259"},
    {"adpcmencode optimal 6/3 verify", "aa9e3a2e32602632", "f9b1000184f73451"},
    {"adpcmencode area 4/2 none", "449d27f5146ceddf", "3d5c6175937a95f5"},
    {"adpcmencode area 4/2 build-afus", "1ddcc31fe0516925", "throw:712003a4d70e7259"},
    {"adpcmencode area 4/2 verify", "d02a1f718268ece4", "48b96aef1ce5505d"},
    {"adpcmencode area 6/3 none", "166935b36ba499c7", "6775b8a0415cc930"},
    {"adpcmencode area 6/3 build-afus", "43e5f95d9ad2d9be", "throw:712003a4d70e7259"},
    {"adpcmencode area 6/3 verify", "9421d62b93151406", "a1e52ee6d2907a1c"},
    {"adpcmencode clubbing 4/2 none", "fbca9faa6887ed09", "1f793c40af5d0106"},
    {"adpcmencode clubbing 4/2 build-afus", "a22542ef5ba24859", "throw:712003a4d70e7259"},
    {"adpcmencode clubbing 4/2 verify", "5ad72cc928fbcda0", "04ee57984c28cdd8"},
    {"adpcmencode clubbing 6/3 none", "65c637a65215c2d8", "25cadb0bd5c45d06"},
    {"adpcmencode clubbing 6/3 build-afus", "9cc91c2088295b81", "throw:712003a4d70e7259"},
    {"adpcmencode clubbing 6/3 verify", "f6a4229539f17c39", "46dd153fdd1491eb"},
    {"adpcmencode maxmiso 4/2 none", "9257fc0b08921f9a", "26acd4d6aae785ec"},
    {"adpcmencode maxmiso 4/2 build-afus", "05fd6b551600d3da", "throw:712003a4d70e7259"},
    {"adpcmencode maxmiso 4/2 verify", "5e3b26b882b89c39", "c5e06f4df609f26a"},
    {"adpcmencode maxmiso 6/3 none", "14a299c3e3874bba", "34c7ec60f0fd146d"},
    {"adpcmencode maxmiso 6/3 build-afus", "c743fe5bd19868db", "throw:712003a4d70e7259"},
    {"adpcmencode maxmiso 6/3 verify", "a9ff6047e04016c5", "7c60e9236c4e2832"},
    {"adpcmencode joint-iterative 4/2 none", "30b325c1df2513fe", "3aa7151008748a0d"},
    {"adpcmencode joint-iterative 4/2 build-afus", "f0a58f4877bdd4c3", "throw:712003a4d70e7259"},
    {"adpcmencode joint-iterative 4/2 verify", "3e10773c5f24898c", "e9a601988adda6d2"},
    {"adpcmencode joint-iterative 6/3 none", "63972b7c304d72f6", "68068ffbc3e23b4c"},
    {"adpcmencode joint-iterative 6/3 build-afus", "ce1792f53b43f1e5", "throw:712003a4d70e7259"},
    {"adpcmencode joint-iterative 6/3 verify", "042ae8507f9fe9bd", "3aa0b858239d59aa"},
    {"g721 iterative 4/2 none", "d0a90786272cae44", "f7c9f1b77bcc3c63"},
    {"g721 iterative 4/2 build-afus", "3c2e76488eb00266", "throw:712003a4d70e7259"},
    {"g721 iterative 4/2 verify", "631ef70798026c80", "5daf6d7115518a32"},
    {"g721 iterative 6/3 none", "fbdab7bcabfcd3cd", "def06b0b14cae04e"},
    {"g721 iterative 6/3 build-afus", "53a476886ab89a09", "throw:712003a4d70e7259"},
    {"g721 iterative 6/3 verify", "969a549c62e176a6", "b443153161d16b16"},
    {"g721 optimal 4/2 none", "8f6465575f4e2809", "2f04efd49043963a"},
    {"g721 optimal 4/2 build-afus", "d251b3ba02f608e3", "throw:712003a4d70e7259"},
    {"g721 optimal 4/2 verify", "4a0892eaa69057f5", "d477d2e799c8c846"},
    {"g721 optimal 6/3 none", "4eddeae222a473a2", "04f71ff6d58f1d86"},
    {"g721 optimal 6/3 build-afus", "a964513c2f3e049c", "throw:712003a4d70e7259"},
    {"g721 optimal 6/3 verify", "f814a5b206abedd0", "443c9575dd70f888"},
    {"g721 area 4/2 none", "ef7227de0954d6f6", "75539975b2bb408d"},
    {"g721 area 4/2 build-afus", "ae26f972ce1174a5", "throw:712003a4d70e7259"},
    {"g721 area 4/2 verify", "dab9f126774c60db", "b0a476a15fa41223"},
    {"g721 area 6/3 none", "2ec531f4ad3c9020", "998bed411c9ae33a"},
    {"g721 area 6/3 build-afus", "95665021c83749f5", "throw:712003a4d70e7259"},
    {"g721 area 6/3 verify", "a8170977321ff7b5", "00e6ea401435ce5e"},
    {"g721 clubbing 4/2 none", "a3f48ef55caa8982", "dc0ffc6ddbd1322d"},
    {"g721 clubbing 4/2 build-afus", "88696860bd17244c", "throw:712003a4d70e7259"},
    {"g721 clubbing 4/2 verify", "c1b2323a90a2b7c5", "7b772964e15346c0"},
    {"g721 clubbing 6/3 none", "e75827b410ed9e51", "2d213172b02419ad"},
    {"g721 clubbing 6/3 build-afus", "c85147163446f203", "throw:712003a4d70e7259"},
    {"g721 clubbing 6/3 verify", "ba013adfb9dd8745", "3297138e644bc80d"},
    {"g721 maxmiso 4/2 none", "ecfb4ac5854d6035", "58e02b7ff101454e"},
    {"g721 maxmiso 4/2 build-afus", "c14edc3ecdf90395", "throw:712003a4d70e7259"},
    {"g721 maxmiso 4/2 verify", "75f615be24adb6d4", "302097ead05c0744"},
    {"g721 maxmiso 6/3 none", "da2acc1d78a9ae65", "041f018d93e508ff"},
    {"g721 maxmiso 6/3 build-afus", "db5a6a2e21a6fdaa", "throw:712003a4d70e7259"},
    {"g721 maxmiso 6/3 verify", "8b0f2648515568b2", "6eb986faa74f28c1"},
    {"g721 joint-iterative 4/2 none", "5d479f2794161780", "5644ced0bac783b0"},
    {"g721 joint-iterative 4/2 build-afus", "1c6b653caf16226b", "throw:712003a4d70e7259"},
    {"g721 joint-iterative 4/2 verify", "563f56c2d02a6c3a", "dcfb7d329f0ad77d"},
    {"g721 joint-iterative 6/3 none", "9110826e49fb42e8", "faa047a7c9242e53"},
    {"g721 joint-iterative 6/3 build-afus", "8323978a17b91274", "throw:712003a4d70e7259"},
    {"g721 joint-iterative 6/3 verify", "72beb4caa019a57a", "159d7fb89f9d7ff3"},
    {"gsm iterative 4/2 none", "b9784783581bee2e", "f3cf739ac773ed6c"},
    {"gsm iterative 4/2 build-afus", "9cd9916c4ccad114", "throw:712003a4d70e7259"},
    {"gsm iterative 4/2 verify", "4a9f62c9210f3005", "9d29ce13fcc06daf"},
    {"gsm iterative 6/3 none", "84532ddf8fa648be", "519fd71ec3c7748a"},
    {"gsm iterative 6/3 build-afus", "330b057f4e6e87ab", "throw:712003a4d70e7259"},
    {"gsm iterative 6/3 verify", "66193bf2c9d5fb25", "9c7effeeff6967d4"},
    {"gsm optimal 4/2 none", "8db8deb0bfc053d5", "5792f739bf0480b0"},
    {"gsm optimal 4/2 build-afus", "688abe6fa6f63271", "throw:712003a4d70e7259"},
    {"gsm optimal 4/2 verify", "164b2d5a4b892d7f", "74ce7754b84226e4"},
    {"gsm optimal 6/3 none", "61464a3cb1e1fdba", "4bbe46568371e76c"},
    {"gsm optimal 6/3 build-afus", "4d2029ef3c08fc5c", "throw:712003a4d70e7259"},
    {"gsm optimal 6/3 verify", "887f03287b2b8839", "654554f2720f1226"},
    {"gsm area 4/2 none", "e1c1cdb287e0ec4e", "4adc16623e8cf877"},
    {"gsm area 4/2 build-afus", "fdc264cdcc62ffc8", "throw:712003a4d70e7259"},
    {"gsm area 4/2 verify", "194e1b70c3ce8ceb", "9a9b88dca062c3f9"},
    {"gsm area 6/3 none", "ab98b5b275be8481", "27764bc8ebd4ff99"},
    {"gsm area 6/3 build-afus", "1e3914483e623fc8", "throw:712003a4d70e7259"},
    {"gsm area 6/3 verify", "2da293e90de6656b", "8a7076897b8b15be"},
    {"gsm clubbing 4/2 none", "1cf0ed31263b5f6a", "9a617d7f1551840b"},
    {"gsm clubbing 4/2 build-afus", "c9a639ba5937a13a", "throw:712003a4d70e7259"},
    {"gsm clubbing 4/2 verify", "b4ca7e24efb1efc4", "44fe8d4643fa7a5a"},
    {"gsm clubbing 6/3 none", "a087773a5b2b7865", "52f4175d3ee692f1"},
    {"gsm clubbing 6/3 build-afus", "9ad838f62daa8855", "throw:712003a4d70e7259"},
    {"gsm clubbing 6/3 verify", "8b85df7d3d7b6670", "a580911908e2a37a"},
    {"gsm maxmiso 4/2 none", "a13d170ccc8ec045", "f89c593f120353da"},
    {"gsm maxmiso 4/2 build-afus", "bf3c9e252e74b6b8", "throw:712003a4d70e7259"},
    {"gsm maxmiso 4/2 verify", "2d4bb2404dfaec58", "d78660e49abd0e39"},
    {"gsm maxmiso 6/3 none", "099e3bc2de4c7c23", "2ffb18cf45c6e6a0"},
    {"gsm maxmiso 6/3 build-afus", "0d10417ca1933886", "throw:712003a4d70e7259"},
    {"gsm maxmiso 6/3 verify", "1b66ea98393d058b", "ef569a9639303541"},
    {"gsm joint-iterative 4/2 none", "34bd405bf138ef2e", "4782c09d83e52b80"},
    {"gsm joint-iterative 4/2 build-afus", "b21afaf942c460d3", "throw:712003a4d70e7259"},
    {"gsm joint-iterative 4/2 verify", "3563a1febae7c18f", "8beeb87661d9107c"},
    {"gsm joint-iterative 6/3 none", "c29f7fb0aae921e5", "f2e0477ba2892a01"},
    {"gsm joint-iterative 6/3 build-afus", "4d5e0088f0d4ad14", "throw:712003a4d70e7259"},
    {"gsm joint-iterative 6/3 verify", "04d6c2ac6043da92", "5509ddb1e8933f55"},
    {"crc32 iterative 4/2 none", "a8d1f493f74588c3", "7fe08ccc3172924f"},
    {"crc32 iterative 4/2 build-afus", "b2cd56b8f3ced8b3", "throw:712003a4d70e7259"},
    {"crc32 iterative 4/2 verify", "f4de7262d383bb6e", "fb36e4e4ce36aaca"},
    {"crc32 iterative 6/3 none", "ac1cb556e402c53f", "cbdd12325d27df7f"},
    {"crc32 iterative 6/3 build-afus", "a14c122dd51c490e", "throw:712003a4d70e7259"},
    {"crc32 iterative 6/3 verify", "f2f90e72c5e7aac9", "f0601f17b0e4860c"},
    {"crc32 optimal 4/2 none", "f4fe231706b207ff", "80f4338ab4d962f9"},
    {"crc32 optimal 4/2 build-afus", "1cf3e58798c1dc2c", "throw:712003a4d70e7259"},
    {"crc32 optimal 4/2 verify", "dd2fd92e05bf0262", "856255de99f41bea"},
    {"crc32 optimal 6/3 none", "23e6ea6af704c5be", "7a51c844b7e54fc6"},
    {"crc32 optimal 6/3 build-afus", "424adb70157ef24f", "throw:712003a4d70e7259"},
    {"crc32 optimal 6/3 verify", "de15de582a17684f", "0e960b7882eddb54"},
    {"crc32 area 4/2 none", "9447bcef93843b0b", "fe97e716c7a191c4"},
    {"crc32 area 4/2 build-afus", "d693c21d327c4751", "throw:712003a4d70e7259"},
    {"crc32 area 4/2 verify", "2050ff2c24a11311", "c69bdc688008298c"},
    {"crc32 area 6/3 none", "e013d2fff993a5ef", "afc4f490d9aca407"},
    {"crc32 area 6/3 build-afus", "49ca1a0173688938", "throw:712003a4d70e7259"},
    {"crc32 area 6/3 verify", "d1fe8f9819dc7a3f", "cda09994f633f59d"},
    {"crc32 clubbing 4/2 none", "7772f9f1a0e79b60", "ace69ae5dd298e3f"},
    {"crc32 clubbing 4/2 build-afus", "010b513cbd1fd198", "throw:712003a4d70e7259"},
    {"crc32 clubbing 4/2 verify", "951fd6869f1ce7f4", "b75d69216f1a4036"},
    {"crc32 clubbing 6/3 none", "a4cc3a76728bcc68", "ebb72790caa2fffd"},
    {"crc32 clubbing 6/3 build-afus", "a77ba83a51c138d7", "throw:712003a4d70e7259"},
    {"crc32 clubbing 6/3 verify", "6f2fab75c1a28d07", "a1c592c6f3456963"},
    {"crc32 maxmiso 4/2 none", "851c2ee7877eecec", "6f4e36e218492ce0"},
    {"crc32 maxmiso 4/2 build-afus", "dc353614c6258ef7", "throw:712003a4d70e7259"},
    {"crc32 maxmiso 4/2 verify", "a4d03c39b54c3dfc", "beded268451cd830"},
    {"crc32 maxmiso 6/3 none", "30c321db6e8a511e", "4d0fcf59d7382a2d"},
    {"crc32 maxmiso 6/3 build-afus", "227690eba53afd80", "throw:712003a4d70e7259"},
    {"crc32 maxmiso 6/3 verify", "f59e675a4431a76f", "e7de8745f4c695ea"},
    {"crc32 joint-iterative 4/2 none", "bf47b81ff2a30314", "7a0c68ca88187501"},
    {"crc32 joint-iterative 4/2 build-afus", "da9d0b000b6b5ae2", "throw:712003a4d70e7259"},
    {"crc32 joint-iterative 4/2 verify", "169f41a2226e7bec", "7662cce2ef9d1486"},
    {"crc32 joint-iterative 6/3 none", "8154773a576373e1", "cb2aaed79b9a6089"},
    {"crc32 joint-iterative 6/3 build-afus", "b037a83f53da8e1b", "throw:712003a4d70e7259"},
    {"crc32 joint-iterative 6/3 verify", "345786c23972b0f8", "ef8b733f97855da4"},
    {"sha1 iterative 4/2 none", "ae021bceacee9579", "1ae4be30d0601ad7"},
    {"sha1 iterative 4/2 build-afus", "b1bf8f25d3577915", "throw:712003a4d70e7259"},
    {"sha1 iterative 4/2 verify", "ae8d41ac6bfef9b5", "fbb36b19921e55a8"},
    {"sha1 iterative 6/3 none", "1f45a704d54d29b0", "fac3db1e62d48196"},
    {"sha1 iterative 6/3 build-afus", "89e7c1f5ea5664a2", "throw:712003a4d70e7259"},
    {"sha1 iterative 6/3 verify", "7b6f6230917b5223", "f48bc91a441a4495"},
    {"sha1 optimal 4/2 none", "4d1b20b849b17cb6", "ac09b6fb6aa8e791"},
    {"sha1 optimal 4/2 build-afus", "63ab60a671af857e", "throw:712003a4d70e7259"},
    {"sha1 optimal 4/2 verify", "640cbfaa4ba6f1cb", "65a0fc77b6d30f20"},
    {"sha1 optimal 6/3 none", "d559c08bbd7dd54a", "ca35db382c93807a"},
    {"sha1 optimal 6/3 build-afus", "12cc5c84601a8627", "throw:712003a4d70e7259"},
    {"sha1 optimal 6/3 verify", "7b687fd736e7ade4", "41f4d289e7d88922"},
    {"sha1 area 4/2 none", "df9c1fb33baab7dc", "3d5951521de68c77"},
    {"sha1 area 4/2 build-afus", "431c78a0ed587a7e", "throw:712003a4d70e7259"},
    {"sha1 area 4/2 verify", "cf5bafa3c981df56", "a80c489362b51cc1"},
    {"sha1 area 6/3 none", "bae61463993ca875", "50aa37d7c8382dd5"},
    {"sha1 area 6/3 build-afus", "86444b50f5c6f5e0", "throw:712003a4d70e7259"},
    {"sha1 area 6/3 verify", "252317dafad46678", "27e177b9610ad915"},
    {"sha1 clubbing 4/2 none", "a6cba7ea7ed18858", "711e9ac755818cf6"},
    {"sha1 clubbing 4/2 build-afus", "8f3ad2e3770ba2c7", "throw:712003a4d70e7259"},
    {"sha1 clubbing 4/2 verify", "6ddec290641ebc10", "b4bfe6b2d9821341"},
    {"sha1 clubbing 6/3 none", "b858082dfebca2f2", "ff5d570e47f5ebfd"},
    {"sha1 clubbing 6/3 build-afus", "4d1630771b2f5021", "throw:712003a4d70e7259"},
    {"sha1 clubbing 6/3 verify", "fa8b0046ecfb7a3c", "cf3e27f6d100588d"},
    {"sha1 maxmiso 4/2 none", "72bbfe939f55787b", "3af628a0e8002e1b"},
    {"sha1 maxmiso 4/2 build-afus", "f6748f3b569b2687", "throw:712003a4d70e7259"},
    {"sha1 maxmiso 4/2 verify", "6d72a7fff3a41507", "9986265b1f86d80f"},
    {"sha1 maxmiso 6/3 none", "e09c93d34037b80d", "89f704e876e6ce83"},
    {"sha1 maxmiso 6/3 build-afus", "434c315ce4635c47", "throw:712003a4d70e7259"},
    {"sha1 maxmiso 6/3 verify", "562cf1b764691f33", "e1854c54ad42aa36"},
    {"sha1 joint-iterative 4/2 none", "25296bdf92ce2ec3", "b4732ea79bd1b77c"},
    {"sha1 joint-iterative 4/2 build-afus", "c248283527b27d0e", "throw:712003a4d70e7259"},
    {"sha1 joint-iterative 4/2 verify", "5ae86f43939908ce", "905d0a306e98188e"},
    {"sha1 joint-iterative 6/3 none", "7dc7367a98323d6c", "d05400994e305c1f"},
    {"sha1 joint-iterative 6/3 build-afus", "660b507793bcdff0", "throw:712003a4d70e7259"},
    {"sha1 joint-iterative 6/3 verify", "b8544a201dc352be", "64f8311d09b08fa7"},
    {"viterbi iterative 4/2 none", "308c98e042feb528", "0c4a9c509d6453fe"},
    {"viterbi iterative 4/2 build-afus", "0e7bc51e737b67be", "throw:712003a4d70e7259"},
    {"viterbi iterative 4/2 verify", "3463badaad791cc5", "a966f5850830d8fe"},
    {"viterbi iterative 6/3 none", "2cd93ce04aeeff23", "a74f3e9a831c209b"},
    {"viterbi iterative 6/3 build-afus", "38f74b4709b9a137", "throw:712003a4d70e7259"},
    {"viterbi iterative 6/3 verify", "4cc23f78572e66f5", "3294409716f3fd5b"},
    {"viterbi optimal 4/2 none", "449657c0064802af", "a4283d19a17e1021"},
    {"viterbi optimal 4/2 build-afus", "8d0915b8c216a0cf", "throw:712003a4d70e7259"},
    {"viterbi optimal 4/2 verify", "da425708c6e50e56", "db7e090ddbeb4693"},
    {"viterbi optimal 6/3 none", "f60b92ac398311ef", "b15ee37c5f287743"},
    {"viterbi optimal 6/3 build-afus", "4fa6f9409c12a1db", "throw:712003a4d70e7259"},
    {"viterbi optimal 6/3 verify", "d1f7b5a1154ae1d2", "7c0b5946cf3e6477"},
    {"viterbi area 4/2 none", "cc02cf4dc920f769", "43ed294d76f24f15"},
    {"viterbi area 4/2 build-afus", "75e0d5c4290c4f55", "throw:712003a4d70e7259"},
    {"viterbi area 4/2 verify", "2c99a1c1d6aabcbe", "b1129771f33daf30"},
    {"viterbi area 6/3 none", "4d7e95f93e7ea48c", "f9b43205e4d0f789"},
    {"viterbi area 6/3 build-afus", "ab1be035542f8451", "throw:712003a4d70e7259"},
    {"viterbi area 6/3 verify", "b1a5528461807abe", "f3207810c2f8c7bf"},
    {"viterbi clubbing 4/2 none", "bd9ce6232365936f", "335ba740c3af7954"},
    {"viterbi clubbing 4/2 build-afus", "a19f5d57e9527ad6", "throw:712003a4d70e7259"},
    {"viterbi clubbing 4/2 verify", "d0fc2751b1978f6c", "9f6da255f279be33"},
    {"viterbi clubbing 6/3 none", "0cc989e7da4a6d75", "944aec31ba7ce196"},
    {"viterbi clubbing 6/3 build-afus", "3422c5e8372a57d6", "throw:712003a4d70e7259"},
    {"viterbi clubbing 6/3 verify", "8520004d66326aa7", "2dd68663bb70bba8"},
    {"viterbi maxmiso 4/2 none", "297b6277d2e26669", "a666fabfe4989802"},
    {"viterbi maxmiso 4/2 build-afus", "5c3f4c9a4d44ef6d", "throw:712003a4d70e7259"},
    {"viterbi maxmiso 4/2 verify", "e62e447cdd503fb4", "d75f604f8ad2ece0"},
    {"viterbi maxmiso 6/3 none", "7f791340ec206d2d", "09badca1d0180c55"},
    {"viterbi maxmiso 6/3 build-afus", "65ae2c901664e27d", "throw:712003a4d70e7259"},
    {"viterbi maxmiso 6/3 verify", "612106f1da6dc673", "19d85d2304834df6"},
    {"viterbi joint-iterative 4/2 none", "7954b208754f360e", "31629638dfd09574"},
    {"viterbi joint-iterative 4/2 build-afus", "6aa9bd268a0e4de3", "throw:712003a4d70e7259"},
    {"viterbi joint-iterative 4/2 verify", "574300f472d8d947", "e120cf983c124048"},
    {"viterbi joint-iterative 6/3 none", "e1cd82219113f56f", "3db9059296753813"},
    {"viterbi joint-iterative 6/3 build-afus", "a4ff970175231395", "throw:712003a4d70e7259"},
    {"viterbi joint-iterative 6/3 verify", "b3b0aa6751c59585", "2bafc220fc924504"},
    {"rgb2yuv iterative 4/2 none", "e919d2f074b9f517", "24a2686d6f8531af"},
    {"rgb2yuv iterative 4/2 build-afus", "200c24d1c4367cf2", "throw:712003a4d70e7259"},
    {"rgb2yuv iterative 4/2 verify", "f5d26fe4a42e616e", "e5f571c081de59a3"},
    {"rgb2yuv iterative 6/3 none", "178177b0c299e0f8", "64f48739a0c71a37"},
    {"rgb2yuv iterative 6/3 build-afus", "f0885b67d9eb2bbe", "throw:712003a4d70e7259"},
    {"rgb2yuv iterative 6/3 verify", "590b93758cd2dc2a", "7cda7907379e43fd"},
    {"rgb2yuv optimal 4/2 none", "69ad92a0db062ba8", "27ff3244f9ec19b6"},
    {"rgb2yuv optimal 4/2 build-afus", "0e78d1f9aa827db6", "throw:712003a4d70e7259"},
    {"rgb2yuv optimal 4/2 verify", "e3f87f6306561e33", "10ffe758b9a0c2d7"},
    {"rgb2yuv optimal 6/3 none", "7a675b3388a8d97e", "33fd6d683c3972cb"},
    {"rgb2yuv optimal 6/3 build-afus", "5ac56d67e17828f7", "throw:712003a4d70e7259"},
    {"rgb2yuv optimal 6/3 verify", "422c4ca0c557768a", "5030dae9a93837a9"},
    {"rgb2yuv area 4/2 none", "4b22c206fe5765da", "8ca2796907355a0c"},
    {"rgb2yuv area 4/2 build-afus", "576fd42d87a3f391", "throw:712003a4d70e7259"},
    {"rgb2yuv area 4/2 verify", "4ac4a95d12537e9f", "e784a6e4c6d60514"},
    {"rgb2yuv area 6/3 none", "28bbedd1817b2bd2", "447914d849ee3245"},
    {"rgb2yuv area 6/3 build-afus", "8cd02c9ca06a49d6", "throw:712003a4d70e7259"},
    {"rgb2yuv area 6/3 verify", "ecfd8be9383b663d", "893c3eb7de76babd"},
    {"rgb2yuv clubbing 4/2 none", "95952c34e97da154", "4e7a833b74d8f9eb"},
    {"rgb2yuv clubbing 4/2 build-afus", "620275649c59f2ff", "throw:712003a4d70e7259"},
    {"rgb2yuv clubbing 4/2 verify", "8bdec30806548d12", "fd876c201328af27"},
    {"rgb2yuv clubbing 6/3 none", "b95538fd2aa60330", "413f60707e98bea9"},
    {"rgb2yuv clubbing 6/3 build-afus", "df1d1591b9948d2e", "throw:712003a4d70e7259"},
    {"rgb2yuv clubbing 6/3 verify", "c9d5cabe1a8d02d1", "9459f48b647a7e62"},
    {"rgb2yuv maxmiso 4/2 none", "9d3b9fb97a83b016", "abae280125be3a1b"},
    {"rgb2yuv maxmiso 4/2 build-afus", "c63e9c3db69ca9bc", "throw:712003a4d70e7259"},
    {"rgb2yuv maxmiso 4/2 verify", "d2b740312b185e3a", "14e48b92dc1430e4"},
    {"rgb2yuv maxmiso 6/3 none", "a5a35388b090c1dc", "7b7f5f329fd1cfa5"},
    {"rgb2yuv maxmiso 6/3 build-afus", "29d36a3b8515b6e5", "throw:712003a4d70e7259"},
    {"rgb2yuv maxmiso 6/3 verify", "cd1fdfc452fed7db", "efffa2388df94f6b"},
    {"rgb2yuv joint-iterative 4/2 none", "775ab4b0fba8691f", "5956f72c9493c8ee"},
    {"rgb2yuv joint-iterative 4/2 build-afus", "3b81be87b4896d6a", "throw:712003a4d70e7259"},
    {"rgb2yuv joint-iterative 4/2 verify", "97e77307ef3bed20", "6d30f29d530bf387"},
    {"rgb2yuv joint-iterative 6/3 none", "30db7f2d20f5b368", "3f4733eae073248a"},
    {"rgb2yuv joint-iterative 6/3 build-afus", "87cf05fe02122a4e", "throw:712003a4d70e7259"},
    {"rgb2yuv joint-iterative 6/3 verify", "3456d2cacfe7b67a", "4417fbc655718547"},
    {"fir iterative 4/2 none", "a80054a8c2b79d4e", "01470b3321c8646f"},
    {"fir iterative 4/2 build-afus", "7f87e18075edcb17", "throw:712003a4d70e7259"},
    {"fir iterative 4/2 verify", "2dbcb40dc3323937", "0f07d8c296d78d9c"},
    {"fir iterative 6/3 none", "b58a20235056b4ed", "d2305ef802813c42"},
    {"fir iterative 6/3 build-afus", "527f84a3eb2657e1", "throw:712003a4d70e7259"},
    {"fir iterative 6/3 verify", "baa5a59034378749", "49cbef49bf93f4f8"},
    {"fir optimal 4/2 none", "c2ea2cbd8775f200", "77510505e2be22a4"},
    {"fir optimal 4/2 build-afus", "b5e1bca5dac5a037", "throw:712003a4d70e7259"},
    {"fir optimal 4/2 verify", "aa65f4d2073a727d", "f61790765361aae9"},
    {"fir optimal 6/3 none", "63e646df2303cced", "055b42fe8c3d7ef5"},
    {"fir optimal 6/3 build-afus", "ce167b8d1d90da39", "throw:712003a4d70e7259"},
    {"fir optimal 6/3 verify", "ef62a73bffc31d3d", "7762d0ac6f00e7b4"},
    {"fir area 4/2 none", "e490c2360a44b040", "fb2db065616f0a24"},
    {"fir area 4/2 build-afus", "296947f3eba0d718", "throw:712003a4d70e7259"},
    {"fir area 4/2 verify", "9ad7230597b6dcf4", "a119c0f1bdca849b"},
    {"fir area 6/3 none", "1ef50280e682cfcd", "81e53e62bf959ab9"},
    {"fir area 6/3 build-afus", "5cc84841e8064eb5", "throw:712003a4d70e7259"},
    {"fir area 6/3 verify", "06ae56d0cd842602", "2396015e7f56cce1"},
    {"fir clubbing 4/2 none", "4c3ee73a4c9eb265", "346b0aaae6b824a9"},
    {"fir clubbing 4/2 build-afus", "1e33f2773a7c0340", "throw:712003a4d70e7259"},
    {"fir clubbing 4/2 verify", "50838ed2375e1db2", "ac16617ead9b2adf"},
    {"fir clubbing 6/3 none", "73ea05c08693cb2d", "3c04858062633cba"},
    {"fir clubbing 6/3 build-afus", "2e1fff2a5121c497", "throw:712003a4d70e7259"},
    {"fir clubbing 6/3 verify", "576a4785139f6d5f", "934ec7c90584aac3"},
    {"fir maxmiso 4/2 none", "097abe6e3fff2388", "96838fe85327521c"},
    {"fir maxmiso 4/2 build-afus", "097abe6e3fff2388", "throw:712003a4d70e7259"},
    {"fir maxmiso 4/2 verify", "277e66a8841e9e5e", "63b3bda16258878e"},
    {"fir maxmiso 6/3 none", "b407990eb53aa108", "65f3d1bb8df57a58"},
    {"fir maxmiso 6/3 build-afus", "b407990eb53aa108", "throw:712003a4d70e7259"},
    {"fir maxmiso 6/3 verify", "cd7dd6503e8a368d", "4f36bbabe39f139f"},
    {"fir joint-iterative 4/2 none", "15e0a99b8361d0ad", "c29341dbd9d81fa3"},
    {"fir joint-iterative 4/2 build-afus", "082f3ed96806cf78", "throw:712003a4d70e7259"},
    {"fir joint-iterative 4/2 verify", "ee9263e80af289f6", "c74b6fded35d3f22"},
    {"fir joint-iterative 6/3 none", "5ddbd7ed1c6be0c4", "8d1511352ce2743a"},
    {"fir joint-iterative 6/3 build-afus", "89c2822928acfd87", "throw:712003a4d70e7259"},
    {"fir joint-iterative 6/3 verify", "b91e71c7c146ae68", "86cbce0cacb744a1"},
    {"sobel iterative 4/2 none", "8b4eed171dad73f6", "8405ad1e173afa2b"},
    {"sobel iterative 4/2 build-afus", "4dbdcf7cabbb93df", "throw:712003a4d70e7259"},
    {"sobel iterative 4/2 verify", "4f21a5f71e79ba60", "2550421380ceb017"},
    {"sobel iterative 6/3 none", "4068919c44641e27", "1f3e725d0642ec60"},
    {"sobel iterative 6/3 build-afus", "6efbc3f8c232dcca", "throw:712003a4d70e7259"},
    {"sobel iterative 6/3 verify", "5359dbe79d8ee087", "59fc13a0ef5ee361"},
    {"sobel optimal 4/2 none", "951440ab50b89b51", "845242813efb4074"},
    {"sobel optimal 4/2 build-afus", "4af540b2b20eebea", "throw:712003a4d70e7259"},
    {"sobel optimal 4/2 verify", "abb59154ea62e802", "49c74b889d9b26ce"},
    {"sobel optimal 6/3 none", "f81725deee17d70d", "c8eee2234066d4cd"},
    {"sobel optimal 6/3 build-afus", "08577c949dc704a6", "throw:712003a4d70e7259"},
    {"sobel optimal 6/3 verify", "9346b770cbf56a4b", "471d80f031861519"},
    {"sobel area 4/2 none", "63f2b326dbc8a6a7", "a285e52eed8ebe6a"},
    {"sobel area 4/2 build-afus", "373a48edf5ee4b43", "throw:712003a4d70e7259"},
    {"sobel area 4/2 verify", "6a920bf142907a9d", "5b54ea95fefa5aff"},
    {"sobel area 6/3 none", "18ce08e26a2ba767", "9cf9f5952c02c707"},
    {"sobel area 6/3 build-afus", "410a42ecc43fb11e", "throw:712003a4d70e7259"},
    {"sobel area 6/3 verify", "74f2119207503370", "00d72cf15b1ff8fc"},
    {"sobel clubbing 4/2 none", "eccce002c2a4fe7e", "534c0e226b8cc1ee"},
    {"sobel clubbing 4/2 build-afus", "fe7499116a0e0551", "throw:712003a4d70e7259"},
    {"sobel clubbing 4/2 verify", "93dbdc5c3e69b874", "03a7f99e6aa98311"},
    {"sobel clubbing 6/3 none", "f1c17d5a77bbf99b", "16f41592d81bc7b0"},
    {"sobel clubbing 6/3 build-afus", "6bd6edc0e95009a9", "throw:712003a4d70e7259"},
    {"sobel clubbing 6/3 verify", "33ea7f17beaf4075", "69c07ee363103e8d"},
    {"sobel maxmiso 4/2 none", "6bfefe69bdb126aa", "7986b8186cd15e64"},
    {"sobel maxmiso 4/2 build-afus", "82d7a957fc99bf09", "throw:712003a4d70e7259"},
    {"sobel maxmiso 4/2 verify", "f56507c0460b34b7", "11ab7bd1adda2db4"},
    {"sobel maxmiso 6/3 none", "23261e3f4c2e7003", "8dd26a36535b78d5"},
    {"sobel maxmiso 6/3 build-afus", "e302a4e21caefd2a", "throw:712003a4d70e7259"},
    {"sobel maxmiso 6/3 verify", "df5048b6b8e883bd", "3b58830acf63d5d4"},
    {"sobel joint-iterative 4/2 none", "beb1ddcc7ba7aaf3", "902b30ec3ba397e4"},
    {"sobel joint-iterative 4/2 build-afus", "bfa4779c4c0f1ecf", "throw:712003a4d70e7259"},
    {"sobel joint-iterative 4/2 verify", "e8f9dd0cb5ccf49d", "2a12fc2f99d3e03b"},
    {"sobel joint-iterative 6/3 none", "4000cdead0c5f721", "fb69f4b6078dd880"},
    {"sobel joint-iterative 6/3 build-afus", "6b046f5073558841", "throw:712003a4d70e7259"},
    {"sobel joint-iterative 6/3 verify", "53c8311217b21124", "2a414492492c0246"},
    {"blowfish iterative 4/2 none", "8356be581c2068ff", "c32292ff454d8b9c"},
    {"blowfish iterative 4/2 build-afus", "fbf6077c04a5688a", "throw:712003a4d70e7259"},
    {"blowfish iterative 4/2 verify", "54bed8784d1ed84a", "a1e0817474b8bae5"},
    {"blowfish iterative 6/3 none", "adff3bf89e929798", "d41e97508a8354ec"},
    {"blowfish iterative 6/3 build-afus", "c8946368d2b88fd0", "throw:712003a4d70e7259"},
    {"blowfish iterative 6/3 verify", "69578aa0555f989e", "fd5190429543215a"},
    {"blowfish optimal 4/2 none", "b2342c92e5fdb2af", "a2c3db7cd25e2d5c"},
    {"blowfish optimal 4/2 build-afus", "ca2a62fd3b3243ff", "throw:712003a4d70e7259"},
    {"blowfish optimal 4/2 verify", "a00940c74af2677c", "82d3e9a6f0afdca6"},
    {"blowfish optimal 6/3 none", "c836043f847e9e6e", "bc2c2f6f273b5ac1"},
    {"blowfish optimal 6/3 build-afus", "26da31d6231733a0", "throw:712003a4d70e7259"},
    {"blowfish optimal 6/3 verify", "30ac7da5694323b1", "585c126caba080cf"},
    {"blowfish area 4/2 none", "93783e15baf08574", "836e322affa7e29a"},
    {"blowfish area 4/2 build-afus", "852101248295defe", "throw:712003a4d70e7259"},
    {"blowfish area 4/2 verify", "5fbf29b772485172", "c68fb39ea8cfe6b1"},
    {"blowfish area 6/3 none", "2322ab3d3b8d54c4", "fdeb979591aab48f"},
    {"blowfish area 6/3 build-afus", "47eb0baaded1b795", "throw:712003a4d70e7259"},
    {"blowfish area 6/3 verify", "9fd27d81f1e40e12", "adc034cf428cd74d"},
    {"blowfish clubbing 4/2 none", "b9bbbbfc9aba2726", "ce028252369caf33"},
    {"blowfish clubbing 4/2 build-afus", "0f4f5d96bd2d7174", "throw:712003a4d70e7259"},
    {"blowfish clubbing 4/2 verify", "f3932a18de7985dc", "2fc4bc985872a7da"},
    {"blowfish clubbing 6/3 none", "48c9ae9e7b27c98d", "c1cabcc910a1fefa"},
    {"blowfish clubbing 6/3 build-afus", "5225cdd379163de2", "throw:712003a4d70e7259"},
    {"blowfish clubbing 6/3 verify", "529226bef31f06ce", "5af0eea5d51fe0e7"},
    {"blowfish maxmiso 4/2 none", "0c67a6a1773d8b2a", "0aae266b8201608a"},
    {"blowfish maxmiso 4/2 build-afus", "04e68210d705134e", "throw:712003a4d70e7259"},
    {"blowfish maxmiso 4/2 verify", "58ed57a001340fd7", "51fc7ee5acf8186a"},
    {"blowfish maxmiso 6/3 none", "bcb40b2de791a4ba", "4265f2e1b5df76f2"},
    {"blowfish maxmiso 6/3 build-afus", "5dbad0f70c46259b", "throw:712003a4d70e7259"},
    {"blowfish maxmiso 6/3 verify", "4e2213572ea8d3e7", "412b13522aec3d13"},
    {"blowfish joint-iterative 4/2 none", "7463f35cd4b4d998", "1f3d11906fb6aa9b"},
    {"blowfish joint-iterative 4/2 build-afus", "bf0f2598d29be7f3", "throw:712003a4d70e7259"},
    {"blowfish joint-iterative 4/2 verify", "404e0b657c1103a0", "5b587ed8fc64be74"},
    {"blowfish joint-iterative 6/3 none", "6d42cf598db3a861", "cd21d8e140fec087"},
    {"blowfish joint-iterative 6/3 build-afus", "7ec5776b3bc5c7c4", "throw:712003a4d70e7259"},
    {"blowfish joint-iterative 6/3 verify", "d31aefe514ee09fd", "62eb80ad620a83f1"},
    {"idct iterative 4/2 none", "10d0fd0762fcc51a", "7c9892685f393cff"},
    {"idct iterative 4/2 build-afus", "5e06ebaf9b31f05a", "throw:712003a4d70e7259"},
    {"idct iterative 4/2 verify", "63bf8e31e0c2ec20", "fe6885ec3ca57e34"},
    {"idct iterative 6/3 none", "bd80c10f0b60e3b7", "adee597dee7984e0"},
    {"idct iterative 6/3 build-afus", "8717fd91bf79a5e6", "throw:712003a4d70e7259"},
    {"idct iterative 6/3 verify", "38a2c857d0d1a883", "0198cf9ef6911aa5"},
    {"idct optimal 4/2 none", "5a4b0d252524097e", "526a380a47a21130"},
    {"idct optimal 4/2 build-afus", "c5efa79d42e81f08", "throw:712003a4d70e7259"},
    {"idct optimal 4/2 verify", "8dfb75817b24edac", "3beca715c79f9c8c"},
    {"idct optimal 6/3 none", "4580663d3ea90408", "2144c73272427a4c"},
    {"idct optimal 6/3 build-afus", "f9f751c74bdb1651", "throw:712003a4d70e7259"},
    {"idct optimal 6/3 verify", "6be8063e3589b033", "5341ab4ea8051300"},
    {"idct area 4/2 none", "49e24f8873a4198f", "debc5260727677d4"},
    {"idct area 4/2 build-afus", "199e7e9008072a77", "throw:712003a4d70e7259"},
    {"idct area 4/2 verify", "a085431e0b815c89", "ba538d041e6419a6"},
    {"idct area 6/3 none", "53a910bd8002d7ff", "4deb8fa5e613794d"},
    {"idct area 6/3 build-afus", "54737bccfb4fe67f", "throw:712003a4d70e7259"},
    {"idct area 6/3 verify", "fdcfb05b93c534b7", "058b4570dc8b58c0"},
    {"idct clubbing 4/2 none", "afb82c74fc44b58e", "21cdbd0995e90445"},
    {"idct clubbing 4/2 build-afus", "313811e5a2c8ce64", "throw:712003a4d70e7259"},
    {"idct clubbing 4/2 verify", "98df0c7024aca8d9", "97755237d54d6055"},
    {"idct clubbing 6/3 none", "40106157ced8257f", "330e77deebb0bec7"},
    {"idct clubbing 6/3 build-afus", "5353493ccd6abdcf", "throw:712003a4d70e7259"},
    {"idct clubbing 6/3 verify", "47fd04f3268918c4", "d7aeb825b016bfdb"},
    {"idct maxmiso 4/2 none", "d095456c89457d6f", "e4089e33ed8a3fc6"},
    {"idct maxmiso 4/2 build-afus", "027af49927f56941", "throw:712003a4d70e7259"},
    {"idct maxmiso 4/2 verify", "01b6ed083f1aa4a6", "104c0f09b2e6956d"},
    {"idct maxmiso 6/3 none", "b12dcb3b218ca345", "4ede05c7c8736d18"},
    {"idct maxmiso 6/3 build-afus", "a47e98f8f7ad9934", "throw:712003a4d70e7259"},
    {"idct maxmiso 6/3 verify", "62123decedfff919", "036fe191b5df601b"},
    {"idct joint-iterative 4/2 none", "645ebb15d1fa8517", "e168f0bef2271a89"},
    {"idct joint-iterative 4/2 build-afus", "c3c01ef23b8c269a", "throw:712003a4d70e7259"},
    {"idct joint-iterative 4/2 verify", "b92826a0aec52da8", "cc6d5c105e49b36d"},
    {"idct joint-iterative 6/3 none", "0e710843b51b14e4", "900b21074555c86b"},
    {"idct joint-iterative 6/3 build-afus", "b9a5f072a53b26be", "throw:712003a4d70e7259"},
    {"idct joint-iterative 6/3 verify", "f99821057409e004", "8e746a03ff02ae9b"},
    {"graphs iterative 4/2 none", "137b996d4f408c1c", "b0e34554663185a1"},
    {"graphs iterative 4/2 graph-artifacts", "1b48d855f66540da", "39fa78cf99fbfae8"},
    {"graphs iterative 6/3 none", "b148cb12deecdc36", "ff499628a7481918"},
    {"graphs iterative 6/3 graph-artifacts", "7ee7d43a5f6f7d46", "986a65ad2320ff87"},
    {"graphs optimal 4/2 none", "4e32391ef2759677", "0ebf42b58bca766f"},
    {"graphs optimal 4/2 graph-artifacts", "f002093c90e094d5", "7415f6362aab75cf"},
    {"graphs optimal 6/3 none", "7a82580e90fcecbb", "0210a06e565f8418"},
    {"graphs optimal 6/3 graph-artifacts", "16135440693125b4", "1e5b775c4d0e74e3"},
    {"graphs area 4/2 none", "8b68d622eba18d79", "50da493482fa8a8b"},
    {"graphs area 4/2 graph-artifacts", "d30c1604c941878b", "86a8f6b6cb4b09e3"},
    {"graphs area 6/3 none", "88ed104937e08e03", "319854ace85690b8"},
    {"graphs area 6/3 graph-artifacts", "50dc1d43bfc81a00", "761d944e1dc98dc7"},
    {"graphs clubbing 4/2 none", "3890b0ca6fd04ad2", "e376d8db09c87f32"},
    {"graphs clubbing 4/2 graph-artifacts", "9b7bd7d519e5f670", "208b6769f315b6c2"},
    {"graphs clubbing 6/3 none", "c79d1a876398ca57", "ce38598aeb39660a"},
    {"graphs clubbing 6/3 graph-artifacts", "0d17f4b336e7877b", "c920cfdd86f764b0"},
    {"graphs maxmiso 4/2 none", "8d1c7b57069ed99a", "c8706c0836762817"},
    {"graphs maxmiso 4/2 graph-artifacts", "fddaf608674f9bf4", "3fdc64f83f41db41"},
    {"graphs maxmiso 6/3 none", "f5b7a7bd4a1ce916", "443f22db884a5d39"},
    {"graphs maxmiso 6/3 graph-artifacts", "f99d0c1f61668d1a", "1274bba59ba50dc5"},
    {"graphs joint-iterative 4/2 none", "3feb441f9c8f74ad", "e0afe24df1dbabf5"},
    {"graphs joint-iterative 4/2 graph-artifacts", "b3d499f052cac4b2", "8eb50f981e439a86"},
    {"graphs joint-iterative 6/3 none", "dfeeaf2fd47a8bd1", "5b2f4b997d04d090"},
    {"graphs joint-iterative 6/3 graph-artifacts", "6cf6081020a30eb8", "707bea675bab8916"},
    {"ir_text iterative 4/2 none", "a8d1f493f74588c3", "7fe08ccc3172924f"},
    {"ir_text iterative 4/2 build-afus", "b2cd56b8f3ced8b3", "throw:712003a4d70e7259"},
    {"ir_text iterative 4/2 verify", "f4de7262d383bb6e", "fb36e4e4ce36aaca"},
    {"ir_text iterative 6/3 none", "ac1cb556e402c53f", "cbdd12325d27df7f"},
    {"ir_text iterative 6/3 build-afus", "a14c122dd51c490e", "throw:712003a4d70e7259"},
    {"ir_text iterative 6/3 verify", "f2f90e72c5e7aac9", "f0601f17b0e4860c"},
    {"ir_text optimal 4/2 none", "f4fe231706b207ff", "80f4338ab4d962f9"},
    {"ir_text optimal 4/2 build-afus", "1cf3e58798c1dc2c", "throw:712003a4d70e7259"},
    {"ir_text optimal 4/2 verify", "dd2fd92e05bf0262", "856255de99f41bea"},
    {"ir_text optimal 6/3 none", "23e6ea6af704c5be", "7a51c844b7e54fc6"},
    {"ir_text optimal 6/3 build-afus", "424adb70157ef24f", "throw:712003a4d70e7259"},
    {"ir_text optimal 6/3 verify", "de15de582a17684f", "0e960b7882eddb54"},
    {"ir_text area 4/2 none", "9447bcef93843b0b", "fe97e716c7a191c4"},
    {"ir_text area 4/2 build-afus", "d693c21d327c4751", "throw:712003a4d70e7259"},
    {"ir_text area 4/2 verify", "2050ff2c24a11311", "c69bdc688008298c"},
    {"ir_text area 6/3 none", "e013d2fff993a5ef", "afc4f490d9aca407"},
    {"ir_text area 6/3 build-afus", "49ca1a0173688938", "throw:712003a4d70e7259"},
    {"ir_text area 6/3 verify", "d1fe8f9819dc7a3f", "cda09994f633f59d"},
    {"ir_text clubbing 4/2 none", "7772f9f1a0e79b60", "ace69ae5dd298e3f"},
    {"ir_text clubbing 4/2 build-afus", "010b513cbd1fd198", "throw:712003a4d70e7259"},
    {"ir_text clubbing 4/2 verify", "951fd6869f1ce7f4", "b75d69216f1a4036"},
    {"ir_text clubbing 6/3 none", "a4cc3a76728bcc68", "ebb72790caa2fffd"},
    {"ir_text clubbing 6/3 build-afus", "a77ba83a51c138d7", "throw:712003a4d70e7259"},
    {"ir_text clubbing 6/3 verify", "6f2fab75c1a28d07", "a1c592c6f3456963"},
    {"ir_text maxmiso 4/2 none", "851c2ee7877eecec", "6f4e36e218492ce0"},
    {"ir_text maxmiso 4/2 build-afus", "dc353614c6258ef7", "throw:712003a4d70e7259"},
    {"ir_text maxmiso 4/2 verify", "a4d03c39b54c3dfc", "beded268451cd830"},
    {"ir_text maxmiso 6/3 none", "30c321db6e8a511e", "4d0fcf59d7382a2d"},
    {"ir_text maxmiso 6/3 build-afus", "227690eba53afd80", "throw:712003a4d70e7259"},
    {"ir_text maxmiso 6/3 verify", "f59e675a4431a76f", "e7de8745f4c695ea"},
    {"ir_text joint-iterative 4/2 none", "bf47b81ff2a30314", "7a0c68ca88187501"},
    {"ir_text joint-iterative 4/2 build-afus", "da9d0b000b6b5ae2", "throw:712003a4d70e7259"},
    {"ir_text joint-iterative 4/2 verify", "169f41a2226e7bec", "7662cce2ef9d1486"},
    {"ir_text joint-iterative 6/3 none", "8154773a576373e1", "cb2aaed79b9a6089"},
    {"ir_text joint-iterative 6/3 build-afus", "b037a83f53da8e1b", "throw:712003a4d70e7259"},
    {"ir_text joint-iterative 6/3 verify", "345786c23972b0f8", "ef8b733f97855da4"},
};
// clang-format on

const char* const kSchemes[] = {"iterative", "optimal", "area",
                                "clubbing",  "maxmiso", "joint-iterative"};
const int kPoints[][2] = {{4, 2}, {6, 3}};

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

Json drop_ms(const Json& j) {
  if (j.type() == Json::Type::array) {
    Json out = Json::array();
    for (const Json& e : j.as_array()) out.push_back(drop_ms(e));
    return out;
  }
  if (j.type() != Json::Type::object) return j;
  Json out = Json::object();
  for (const auto& [key, value] : j.as_object()) {
    if (key.size() >= 3 && key.compare(key.size() - 3, 3, "_ms") == 0) continue;
    out.set(key, drop_ms(value));
  }
  return out;
}

/// Runs `body` with phase events captured and returns its digest.
template <class Body>
std::string digest(Body body) {
  std::string observed;
  RunHooks hooks;
  hooks.on_phase = [&observed](const std::string& phase, const Json& data) {
    observed += phase + " " + drop_ms(data).dump(-1) + "\n";
  };
  try {
    const Json report = body(hooks);
    return hex16(hash_bytes(stable_report_json(report).dump(-1) + "\n" + observed));
  } catch (const std::exception& e) {
    // Assertion messages end in their source location, which depends on
    // where the tree was built.
    std::string message = e.what();
    if (const auto at = message.rfind(" ("); at != std::string::npos && message.back() == ')') {
      message.resize(at);
    }
    return "throw:" + hex16(hash_bytes(message));
  }
}

/// The application of a row, as both entry points receive it.
struct App {
  std::string workload;     // registry name; run_portfolio() always sends it
  std::string ir_text;      // run() sends this instead when non-empty
  std::vector<Dfg> graphs;  // graph-only rows
};

App app_for(const std::string& label) {
  App app;
  if (label == "graphs") {
    // Pre-extracted graphs: adpcmdecode's profiled blocks, no module.
    Workload w = find_workload("adpcmdecode");
    w.preprocess();
    app.graphs = w.extract_dfgs();
  } else if (label == "ir_text") {
    app.workload = "crc32";
    app.ir_text = dump_workload(find_workload("crc32"));
  } else {
    app.workload = label;
  }
  return app;
}

std::vector<std::pair<const char*, EmissionOptions>> emissions_for(const App& app) {
  if (!app.graphs.empty()) {
    EmissionOptions graph_artifacts;
    graph_artifacts.targets = {"dot", "manifest"};
    return {{"none", {}}, {"graph-artifacts", graph_artifacts}};
  }
  EmissionOptions afus;
  afus.build_afus = true;
  EmissionOptions verify;
  verify.targets = {"verilog", "c-intrinsics", "manifest"};
  verify.verify_rewrites = true;
  return {{"none", {}}, {"build-afus", afus}, {"verify", verify}};
}

std::vector<Row> computed_rows(const std::string& label) {
  const App app = app_for(label);
  std::vector<Row> rows;
  for (const char* scheme : kSchemes) {
    for (const auto& point : kPoints) {
      for (const auto& [emission_name, emission] : emissions_for(app)) {
        ExplorationRequest single;
        single.workload = app.ir_text.empty() ? app.workload : "";
        single.ir_text = app.ir_text;
        single.graphs = app.graphs;
        single.scheme = scheme;
        single.constraints.max_inputs = point[0];
        single.constraints.max_outputs = point[1];
        if (single.scheme == "optimal") single.constraints.search_budget = 200000;
        single.num_instructions = 4;
        single.emission = emission;

        MultiExplorationRequest multi;
        multi.workloads.resize(1);
        multi.workloads[0].workload = app.workload;
        multi.workloads[0].graphs = app.graphs;
        multi.scheme = single.scheme;
        multi.constraints = single.constraints;
        multi.num_instructions = single.num_instructions;
        multi.emission = single.emission;

        const Explorer explorer;
        Row row;
        row.key = label + " " + scheme + " " + std::to_string(point[0]) + "/" +
                  std::to_string(point[1]) + " " + emission_name;
        row.single = digest(
            [&](const RunHooks& hooks) { return explorer.run(single, hooks).to_json(); });
        row.portfolio = digest([&](const RunHooks& hooks) {
          return explorer.run_portfolio(multi, hooks).to_json();
        });
        rows.push_back(std::move(row));
      }
    }
  }
  return rows;
}

class PipelineParity : public ::testing::TestWithParam<std::string> {};

TEST_P(PipelineParity, ReportsAndPhasePayloadsMatchTheRecordedDigests) {
  for (const Row& row : computed_rows(GetParam())) {
    const std::string line =
        "{\"" + row.key + "\", \"" + row.single + "\", \"" + row.portfolio + "\"},";
    const Row* recorded = nullptr;
    for (const Row& r : kRows) {
      if (r.key == row.key) recorded = &r;
    }
    ASSERT_NE(recorded, nullptr) << "no recorded row: " << line;
    EXPECT_EQ(row.single, recorded->single) << "run(); re-recorded row: " << line;
    EXPECT_EQ(row.portfolio, recorded->portfolio) << "run_portfolio(); re-recorded row: " << line;
  }
}

std::vector<std::string> parity_labels() {
  std::vector<std::string> labels = workload_names();
  labels.push_back("graphs");
  labels.push_back("ir_text");
  return labels;
}

INSTANTIATE_TEST_SUITE_P(Applications, PipelineParity, ::testing::ValuesIn(parity_labels()),
                         [](const ::testing::TestParamInfo<std::string>& info) {
                           return info.param;
                         });

}  // namespace
}  // namespace isex
